(** Rate-paced character devices (audio / video DACs).

    Models output devices like Sun's [/dev/audio] as the paper describes:
    the driver buffers writes in a bounded FIFO and the hardware drains it
    at the playback rate. A write completes when its data has been
    accepted into the FIFO — so a sustained writer is paced to the
    playback rate, which is what makes [splice(audiofile, audio_dev,
    SPLICE_EOF)] deliver audio on time. The device counts underruns
    (drain ticks that found the FIFO empty while a stream was active),
    the audible-glitch metric used by the movie-player example. *)

open Kpath_sim

type t
(** A character device instance. *)

val create :
  name:string ->
  drain_rate:float ->
  fifo_capacity:int ->
  engine:Engine.t ->
  intr:Blkdev.intr ->
  unit ->
  t
(** [create ()] builds a device draining [drain_rate] bytes/second from a
    [fifo_capacity]-byte FIFO in 1 KB ticks. The first 256 KB of
    consumed bytes are retained for integrity checks. *)

val name : t -> string

val write_async : t -> bytes -> int -> int -> (unit -> unit) -> unit
(** [write_async t data off len k] queues [len] bytes for output and
    calls [k] (in interrupt context) once they have all been accepted
    into the FIFO. Writes are admitted in FIFO order. *)

val try_write : t -> bytes -> int -> int -> int
(** [try_write t data off len] accepts as many bytes as currently fit
    (possibly 0) and returns the count — the non-blocking path. Fails
    with [Invalid_argument] if writers are already queued. *)

val consumed : t -> int
(** Total bytes drained ("played") so far. *)

val underruns : t -> int
(** Drain ticks that found an empty FIFO while data had been written
    before and the stream was not yet closed. *)

val captured : t -> string
(** The first 256 KB of the consumed stream. *)

val close_stream : t -> unit
(** Declare the stream finished: an empty FIFO no longer counts as an
    underrun. A later write reopens the stream. *)
