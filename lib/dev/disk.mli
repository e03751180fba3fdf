(** SCSI disk model.

    Service-time model for a early-90s SCSI drive, parameterised by the
    figures DEC published for the RZ series (quoted in the paper's §6.1):

    - a request that continues the current head position costs only media
      transfer time (streaming);
    - a read that hits the on-board read-ahead cache costs only the SCSI
      bus transfer, subject to the media-rate pipeline: the drive cannot
      deliver data faster than the media sustains, and cannot prefetch
      more than one cache segment ahead of the host;
    - anything else pays seek (average, scaled by a distance factor) plus
      average rotational latency plus media transfer.

    The drive services its queue FIFO, one request at a time, and raises
    a completion interrupt per request; a multi-block request moves one
    block per data area ([Blkdev.req.r_bufs]). Data is stored for real,
    in a {!Blkdev.store}: reads return previously written bytes (zeroes
    for never-written blocks), so every experiment doubles as an
    integrity check. The store shares sealed areas with its callers
    rather than copying them, so the simulated transfer costs the host
    no copy. *)

open Kpath_sim

type geometry = {
  avg_seek : Time.span;  (** average seek time *)
  avg_rot_latency : Time.span;  (** average rotational latency *)
  media_rate : float;  (** bytes/second to and from the media *)
  bus_rate : float;  (** SCSI bus bytes/second for cache hits *)
  readahead_bytes : int;  (** on-board read-ahead cache size *)
  readahead_segments : int;  (** number of independent cache segments *)
}

val rz56 : geometry
(** Digital RZ56: 16 ms seek, 8.3 ms rotational latency, 1.66 MB/s media,
    64 KB single-segment read-ahead. *)

val rz58 : geometry
(** Digital RZ58: 12.5 ms seek, 5.6 ms rotational latency, 2.1 MB/s
    media, 256 KB read-ahead in 4 segments. *)

type t
(** A disk instance. *)

type queue_discipline =
  | Fifo  (** service requests in arrival order *)
  | Elevator
      (** C-LOOK: sweep upward from the head position, wrapping to the
          lowest outstanding block — the [disksort()] of the BSD drivers *)

val create :
  name:string ->
  geometry:geometry ->
  block_size:int ->
  nblocks:int ->
  intr_service:Time.span ->
  ?queue:queue_discipline ->
  engine:Engine.t ->
  intr:Blkdev.intr ->
  unit ->
  t
(** [create ()] builds a disk. [intr_service] is the CPU cost of the
    completion interrupt handler; [intr] injects it into the CPU model.
    Default queue discipline: [Fifo]. *)

val blkdev : t -> Blkdev.t
(** The generic block-device view (strategy entry point). *)

val geometry : t -> geometry

val read_block_direct : t -> int -> bytes
(** [read_block_direct d blkno] is a copy of the stored contents of a
    block, bypassing the service model (testing aid). Never-written
    blocks read as zeroes. *)

val write_block_direct : t -> int -> bytes -> unit
(** Poke block contents directly (testing aid). The bytes must be exactly
    one block long. *)

val inject_error : t -> blkno:int -> unit
(** Make the next request touching [blkno] fail with an I/O error
    (one-shot), for failure-injection tests. Only a single-block request
    consumes the injected error; a failed multi-block request leaves it
    armed so the cluster layer's single-block breakup retries can
    isolate it to exactly the bad block. *)

val max_segments : int
(** Upper bound on [readahead_segments] accepted by [create]. The
    segment table is scanned linearly on every request (fine for the
    1–4 segments of real RZ drives); geometries beyond this bound are
    rejected rather than silently degrading the hot path. *)

val busy : t -> bool
(** [true] while a request is being serviced. *)

val serviced : t -> int
(** Total requests completed. *)

val cache_hits : t -> int
(** Reads satisfied from the on-board read-ahead cache. *)

val seeks : t -> int
(** Requests that paid a seek + rotational delay. *)
