(** In-core inodes (the paper's Ultrix "gnodes").

    An inode maps a file's logical blocks onto physical disk blocks
    through 12 direct pointers, one single-indirect and one
    double-indirect block — the structure [bmap] (in {!Fs}) walks, and
    whose walk splice repeats "by successive calls to bmap()" to build
    its block tables. Physical block number 0 (the superblock) doubles
    as the nil pointer. *)

type ftype =
  | Free  (** slot unused *)
  | Regular  (** regular file *)
  | Directory  (** directory *)

type t = {
  ino : int;  (** inode number *)
  mutable ftype : ftype;
  mutable nlink : int;
  mutable size : int;  (** file size in bytes *)
  direct : int array;  (** [Layout.ndirect] direct block pointers; 0 = nil *)
  mutable single : int;  (** single-indirect block, 0 = nil *)
  mutable double : int;  (** double-indirect block, 0 = nil *)
  mutable dirty : bool;  (** in-core copy differs from disk *)
  mutable locked : bool;
      (** inode lock, held by {!Fs.read}, {!Fs.write}, {!Fs.truncate} and
          {!Fs.fsync} *)
  mutable lock_waiters : (unit -> unit) list;
  mutable last_read_lblk : int;  (** sequential-read detector for read-ahead *)
}

val make : ino:int -> t
(** A fresh free inode. *)

val reset : t -> ftype -> unit
(** Re-initialise for a newly allocated file of the given type. *)

val serialize : t -> bytes -> int -> unit
(** [serialize i b off] writes the 128-byte on-disk form at [off]. *)

val deserialize : ino:int -> bytes -> int -> t
(** Read the on-disk form back. *)

val pp : Format.formatter -> t -> unit
