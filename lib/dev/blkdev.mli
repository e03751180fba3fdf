(** Block-device interface.

    Drivers expose the classic [strategy] entry point: the caller hands
    over a request and gets a completion callback in interrupt context,
    exactly the discipline the buffer cache (and, through it, splice)
    builds on. Devices never block the caller.

    Devices do not know about the buffer cache; the cache translates
    buffer headers into requests. This keeps the dependency pointing the
    same way as in the BSD kernel sources. *)

open Kpath_sim

type error = Io_error of string  (** Hard I/O error, propagated to [B_ERROR]. *)

type req = {
  r_blkno : int;  (** first device block *)
  r_bufs : bytes array;
      (** one data area per block, in block order (read target / write
          source): block [r_blkno + i] moves through the first block of
          [r_bufs.(i)]. A multi-block request is a scatter-gather list —
          a cluster header hands the device its members' own areas, as
          BSD's [cluster_rbuild] remaps member pages, so nothing is
          staged or copied on the way to the driver. *)
  r_write : bool;  (** direction *)
  r_done : error option -> unit;  (** completion, called in interrupt context *)
}

type intr = service:Time.span -> (unit -> unit) -> unit
(** How a driver raises an interrupt: the scheduler's
    [Sched.interrupt] partially applied, kept abstract here so devices
    depend only on [kpath_sim]. *)

type t = {
  dv_name : string;
  dv_id : int;  (** unique id, used by the buffer cache hash *)
  dv_block_size : int;  (** bytes per device block *)
  dv_nblocks : int;  (** device capacity in blocks *)
  dv_strategy : req -> unit;  (** queue a request; returns immediately *)
  dv_stats : Stats.t;  (** per-device counters *)
}

val next_id : unit -> int
(** Allocate a device id (monotonic, deterministic per creation order). *)

val check_req : t -> req -> unit
(** Validate a request against the device geometry: at least one data
    area, every area at least one block long, and the block range
    inside the device. Raises [Invalid_argument] otherwise. Drivers call
    this first in strategy. *)

(** {1 Backing store}

    The data both drivers keep: one slot per device block, allocated by
    the block's first write, so a device costs host memory only for the
    blocks ever written. A never-written block reads as zeros. *)

type store

val store : name:string -> block_size:int -> nblocks:int -> store
(** An empty store; [name] prefixes its error messages. *)

val transfer : store -> req -> error option
(** Carry out a request at its completion instant: an armed injected
    error fails it (see {!inject_error}); otherwise each block moves
    between the store and its data area, and the result is [None]. *)

val read_block_direct : store -> int -> bytes
(** A fresh copy of a block's contents, bypassing any service model
    (testing aid): mutating it leaves the store unchanged. *)

val write_block_direct : store -> int -> bytes -> unit
(** Set a block's contents directly (testing aid). The bytes must be
    exactly one block long. *)

val inject_error : store -> blkno:int -> unit
(** Make the next request touching [blkno] fail (one-shot). Only a
    single-block request consumes the injected error; a failed
    multi-block request leaves it armed so the cluster layer's
    single-block breakup retries isolate it to exactly the bad block. *)
