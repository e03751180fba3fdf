(** Input character devices (audio sources).

    The recording-side counterpart of {!Chardev}: hardware produces a
    deterministic byte stream at a fixed rate in fixed-size chunks,
    delivered to a consumer upcall in interrupt context. Real-time
    semantics: if no consumer is attached (or it cannot keep up — see
    splice's overrun accounting), produced data is dropped, not
    buffered forever. *)

open Kpath_sim

type t
(** An input device. *)

val create :
  name:string ->
  rate:float ->
  engine:Engine.t ->
  intr:Blkdev.intr ->
  unit ->
  t
(** [create ()] builds a source producing [rate] bytes/second in 1 KB
    pieces, starting when a consumer first attaches. The per-chunk
    interrupt service cost is charged through [intr]. *)

val sample_pattern : off:int -> len:int -> bytes
(** The deterministic contents of stream bytes [off, off+len) —
    recorders verify against this. *)

val set_consumer : t -> (bytes -> unit) option -> unit
(** Attach (or detach) the consumer upcall; it receives each chunk in
    interrupt context. Data produced with no consumer attached is
    dropped and counted. *)

val stop : t -> unit
(** Stop the hardware clock. *)
