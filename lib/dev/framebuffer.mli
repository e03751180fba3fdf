(** Framebuffer capture source.

    Models the paper's framebuffer-to-socket splice source: a device that
    produces a fixed-size frame at a fixed rate (e.g. screen capture for
    video transmission). Readers wait for the next frame; frames are
    synthesised deterministically so receivers can verify integrity. *)

open Kpath_sim

type t
(** A framebuffer device. *)

val create :
  name:string ->
  frame_bytes:int ->
  frames_per_sec:float ->
  engine:Engine.t ->
  unit ->
  t
(** [create ()] builds a framebuffer emitting [frame_bytes]-byte frames
    [frames_per_sec] times a second, starting at the first frame
    interval after creation. *)

val next_frame : t -> (seq:int -> bytes -> unit) -> unit
(** [next_frame t k] calls [k ~seq frame] when the next frame is
    captured. Multiple waiters all receive the same frame. The callback
    runs in interrupt-ish context (directly from the engine event). *)

val frame_pattern : seq:int -> size:int -> bytes
(** The deterministic contents of frame [seq] — receivers rebuild it to
    verify end-to-end integrity. *)

val stop : t -> unit
(** Stop capturing; pending waiters are dropped. *)
