(** Buffer headers.

    The kernel [struct buf]: identity of a disk block in transit, its
    data area, state flags, and the completion machinery ([B_CALL] /
    [b_iodone]) that splice hangs its read and write handlers on. The
    paper adds two fields for splice, the owning descriptor and the
    logical block number, which let several buffers be in flight
    simultaneously without being kept in order (§5.4). Only the logical
    block number is here: splice's completion handlers already know
    their descriptor. *)

open Kpath_dev

(** {1 Flags} *)

val b_busy : int
(** The buffer is owned (I/O in progress or held by a caller). *)

val b_done : int
(** The data area holds valid contents. *)

val b_delwri : int
(** Delayed write: dirty, to be written before reuse. *)

val b_async : int
(** Release automatically when I/O completes. *)

val b_call : int
(** Call [b_iodone] at completion instead of waking sleepers. *)

val b_read : int
(** Current operation is a read. *)

val b_error_flag : int
(** The last operation failed; see [b_error]. *)

val b_inval : int
(** Contents are not to be cached on release. *)

type t = {
  b_id : int;  (** header identity (diagnostics) *)
  mutable b_dev : Blkdev.t option;  (** device of the current identity *)
  mutable b_blkno : int;  (** physical (device) block number *)
  mutable b_lblkno : int;  (** splice: logical block within the transfer *)
  mutable b_refs : int;
      (** alias reference count ({!Cache.pin}/{!Cache.unpin}): downstream
          writers sharing [b_data]; the buffer is released when it drains *)
  mutable b_data : bytes;  (** data area — may alias another buffer's *)
  mutable b_sealed : bool;
      (** [b_data] is sealed: shared by reference (with a device store,
          another header or a TCP payload view) and never to be written
          again. Every writer of [b_data] first calls {!Cache.own}, which
          swaps a sealed area for a private one; a device read leaves
          the buffer holding the store's own area, sealed. Meaningful
          on pool buffers only. *)
  mutable b_cluster : bytes array;
      (** a cluster header's member data areas, one per block, which its
          transfer moves in place (BSD's [cluster_rbuild] remaps the
          member pages into the header); empty for any other buffer,
          whose transfer is the one block in [b_data] *)
  mutable b_flags : int;  (** flag bitmask *)
  mutable b_error : Blkdev.error option;  (** failure detail *)
  mutable b_iodone : (t -> unit) option;  (** [B_CALL] completion handler *)
  mutable b_waiters : (unit -> unit) list;  (** [biowait] sleepers *)
  mutable b_stamp : int;  (** LRU recency *)
  mutable b_in_hash : bool;  (** currently on a bufhash chain of the cache *)
}

val make : id:int -> data_size:int -> t
(** A fresh header owning a zeroed, private (unsealed) data area of
    [data_size] bytes. *)

val has : t -> int -> bool
(** [has b f] tests flag [f]. *)

val set : t -> int -> unit
(** Set flag(s) [f]. *)

val clear : t -> int -> unit
(** Clear flag(s) [f]. *)

val valid : t -> bool
(** [valid b] is [has b b_done && not (has b b_error_flag)]. *)

val pp : Format.formatter -> t -> unit
(** One-line diagnostic rendering. *)
