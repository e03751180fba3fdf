(** The filesystem: a 4.2BSD-FFS-style file store over a block device.

    All data and metadata live on the device, moved through the buffer
    cache; [mkfs]/[mount] round-trip the superblock, allocation bitmap
    and inode table. Operations that touch the device may sleep and must
    run inside a process coroutine.

    splice does not use {!read}/{!write}: it calls {!bmap} repeatedly to
    build the physical block table of the source, and {!bmap_alloc} with
    [~zero:false] — the paper's "special version of bmap() ... which
    avoids delayed-writes of freshly allocated, zero-filled blocks" — for
    the destination, then drives the buffer cache directly. *)

open Kpath_sim
open Kpath_dev
open Kpath_buf

type t
(** A mounted filesystem. *)

val mkfs : cache:Cache.t -> Blkdev.t -> ninodes:int -> t
(** [mkfs ~cache dev ~ninodes] formats the device and mounts the fresh
    filesystem. The cache block size must equal the device block size.
    Process context. *)

val mount : cache:Cache.t -> Blkdev.t -> t
(** Mount an existing filesystem, reading its metadata from the device.
    Raises [Fs_error.Error] on a bad image. Process context. *)

val sync : t -> unit
(** Write the superblock, bitmap and inode table to the device and flush
    every delayed write. Process context. *)

val dev : t -> Blkdev.t

val cache : t -> Cache.t

val block_size : t -> int

val free_blocks : t -> int
(** Unallocated data blocks remaining. *)

val stats : t -> Stats.t

(** {1 Naming} *)

val create_file : t -> string -> Inode.t
(** [create_file t path] creates a regular file. Raises [Eexist],
    [Enoent] (missing parent), [Enotdir], [Enametoolong], [Enospc]. *)

val mkdir : t -> string -> Inode.t
(** Create a directory. *)

val lookup : t -> string -> Inode.t
(** Resolve a path to its inode. Raises [Enoent] / [Enotdir]. *)

val unlink : t -> string -> unit
(** Remove a name; the inode and its storage are freed when the last
    link goes. Directories must be empty ([Enotempty]); removing the
    root is [Einval]. *)

val link : t -> string -> string -> unit
(** [link t existing fresh] adds a second name for a regular file
    (hard link). Raises [Eisdir] for directories, [Eexist] if [fresh]
    exists. *)

val rename : t -> string -> string -> unit
(** [rename t old new] atomically (in simulation terms) moves a name.
    An existing regular file at [new] is replaced; a directory target
    must not exist. Renaming a directory into itself is [Einval]. *)

val readdir : t -> string -> (string * int) list
(** Directory entries as (name, inode number), in directory order. *)

(** {1 File I/O (process context)} *)

val read : t -> Inode.t -> off:int -> len:int -> bytes -> pos:int -> int
(** [read t ino ~off ~len dst ~pos] copies up to [len] bytes starting at
    file offset [off] into [dst] at [pos]; returns the count actually
    read (0 at EOF). Sequential reads trigger one-block read-ahead. *)

val write : t -> Inode.t -> off:int -> len:int -> bytes -> pos:int -> int
(** Write [len] bytes at [off] from [dst\[pos..\]], extending the file as
    needed; whole-block writes avoid read-modify-write; dirty blocks are
    delayed-written. Returns [len]. Raises [Enospc] / [Efbig]. *)

val truncate : t -> Inode.t -> int -> unit
(** Shrink or zero-extend (sparsely) the file to the given size, freeing
    any blocks beyond it. *)

val fsync : t -> Inode.t -> unit
(** Force the file's delayed-written data blocks and its inode to the
    device — what [cp]'s copy loop ends with in the experiments. *)

(** {1 Block mapping (splice support)} *)

val bmap : t -> Inode.t -> int -> int option
(** [bmap t ino lblk] is the physical block backing logical block
    [lblk], or [None] for a hole. Process context (indirect blocks may
    need reading). *)

val bmap_alloc : t -> Inode.t -> int -> zero:bool -> int
(** Allocating [bmap]: ensure logical block [lblk] is backed, allocating
    data (and indirect) blocks as needed. With [~zero:true] fresh blocks
    are zero-filled through the cache as delayed writes (the standard
    path); with [~zero:false] they are handed over raw for a caller that
    will overwrite them entirely (the splice destination path). *)

val block_list : t -> Inode.t -> int list
(** Physical blocks of every mapped data block, in logical order —
    the fsync work list. *)

(** {1 Integrity} *)

val fsck : t -> string list
(** Consistency check of the in-core filesystem: bitmap vs reachable
    blocks, link counts, sizes vs mappings. Returns human-readable
    problem descriptions (empty = clean). *)
