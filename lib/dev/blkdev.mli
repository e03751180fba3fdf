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
      (** one data area per block, each exactly one block long, in block
          order: block [r_blkno + i] moves through [r_bufs.(i)]. A
          multi-block request is a scatter-gather list — a cluster
          header hands the device its members' own areas, as BSD's
          [cluster_rbuild] remaps member pages, so nothing is staged on
          the way to the driver. Neither direction copies: a write hands
          its areas over sealed — the store keeps each by reference, so
          the caller never writes them again — and at completion a read
          replaces each slot with the stored block's own sealed area
          (see {!transfer}), so the caller reads its data from [r_bufs]
          afterwards, never from the areas it passed in. *)
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
    area, every area exactly one block long, and the block range
    inside the device. Raises [Invalid_argument] otherwise. Drivers call
    this first in strategy. *)

(** {1 Backing store}

    The data both drivers keep: one sealed (immutable) area per device
    block. The store never writes an area in place: a write replaces
    the block's area, and every never-written block shares one zero
    area. So the areas a read hands out stay valid, and unchanged, for
    as long as anyone holds them — the buffer cache, a splice write
    side or a TCP payload view can share one block's bytes with the
    store instead of copying them. *)

type store

val store : name:string -> block_size:int -> nblocks:int -> store
(** An empty store; [name] prefixes its error messages. *)

val transfer : store -> req -> error option
(** Carry out a request at its completion instant: an armed injected
    error fails it (see {!inject_error}) and leaves [r_bufs] as it
    was; otherwise the result is [None] and each block moves. A read
    sets [r_bufs.(i)] to the store's own area for block [r_blkno + i]
    (shared, never to be written); a write stores [r_bufs.(i)] itself
    as block [r_blkno + i]'s area. *)

val read_block_direct : store -> int -> bytes
(** A fresh copy of a block's contents, bypassing any service model
    (testing aid): mutating it leaves the store unchanged. *)

val write_block_direct : store -> int -> bytes -> unit
(** Set a block's contents directly (testing aid): the store keeps a
    copy. The bytes must be exactly one block long. *)

val inject_error : store -> blkno:int -> unit
(** Make the next request touching [blkno] fail (one-shot). Only a
    single-block request consumes the injected error; a failed
    multi-block request leaves it armed so the cluster layer's
    single-block breakup retries isolate it to exactly the bad block. *)
