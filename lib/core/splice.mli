(** splice() — in-kernel data paths between I/O objects.

    The paper's contribution: move data between two I/O objects entirely
    inside the kernel, asynchronously, with no user-space buffer and no
    per-block process context. A file source runs the §5 descriptor
    mechanism — block tables built with [bmap], [b_iodone] read and
    write handlers chained through the callout list, the §5.5
    watermarks — and that mechanism is the splice graph's
    ([Kpath_graph.Graph]): splice(2) from a file is a graph with one
    edge ([Syscall.splice]), counted under [splice.*] and traced under
    ["splice"] with an [sd<n>] name from this context ({!fresh_id}).

    This module pumps the sources that are not files: datagrams
    (socket-to-socket, socket-to-character-device), frames
    (framebuffer-to-socket) and recording (input-device-to-file); see
    {!start} for the endpoint matrix.

    A machine has one data-path context ({!ctx}) for splices and splice
    graphs alike: one cache, callout list, handler cost, trace and
    counter registry, where the graphs' [graph.*] counters live next to
    the [splice.*] ones. Descriptors and graphs share one completion
    lifecycle ({!Life}), and recording splices and graph edges send
    blocks through the same writer ({!Endpoint.write}), which a graph's
    TCP edges alone bypass. *)

open Kpath_sim
open Kpath_buf

type ctx = private {
  engine : Engine.t;
  callout : Callout.t;
  cache : Cache.t;
  intr : service:Time.span -> (unit -> unit) -> unit;
      (** CPU-interrupt injection *)
  handler_cost : Time.span;  (** CPU per handler activation *)
  stats : Stats.t;
  trace : Trace.t option;
  mutable next_id : int;  (** the next descriptor number *)
}
(** The machine's data-path context. Splice graphs build their own
    context on it ([Kpath_graph.Graph.make_ctx]). *)

val make_ctx :
  engine:Engine.t ->
  callout:Callout.t ->
  cache:Cache.t ->
  intr:(service:Time.span -> (unit -> unit) -> unit) ->
  handler_cost:Time.span ->
  ?trace:Trace.t ->
  unit ->
  ctx
(** [make_ctx ~handler_cost ()] wires the data-path machinery;
    [handler_cost] is the CPU charged per read/write handler or filter
    activation ([Config.splice_handler_cost] on a machine). Pass [trace]
    to record per-block events under the ["splice"] and ["graph"]
    categories. *)

val charge : ctx -> unit
(** Charge one handler activation to the CPU's interrupt bucket. *)

val fresh_id : ctx -> int
(** Take the next descriptor number, the [n] of the trace names [sd<n>]
    and [g<n>]: every splice descriptor and splice graph, splice(2)'s
    one-edge graphs included, draws from this one counter. *)

val ctx_stats : ctx -> Stats.t
(** The shared counter registry. Descriptors of this module count
    [splice.started], [splice.completed], [splice.aborted]; a datagram
    source counts [splice.dgrams_forwarded], and [splice.dgram_drops]
    for each datagram its character-device sink's FIFO could not take
    whole; a framebuffer source [splice.frames_forwarded]; a recording
    [splice.writes_issued] and [splice.overruns]. A splice(2) from a
    file counts the graph pump's names under [splice.*]
    ([splice.reads_issued], [splice.block_latency_us], ...), and splice
    graphs count them under [graph.*], here too. *)

type state =
  | Running
  | Completed
  | Aborted of string  (** I/O error or caller interruption *)

type t
(** A splice descriptor. *)

val eof : int
(** Size sentinel: splice until end-of-file (files, framebuffer) or until
    aborted (sockets). *)

val start :
  ctx ->
  src:Endpoint.source ->
  dst:Endpoint.sink ->
  ?config:Flowctl.config ->
  size:int ->
  unit ->
  t
(** [start ctx ~src ~dst ~size ()] sets up and launches a splice of
    [size] bytes ({!eof} for end-of-file semantics). Process context (a
    recording's block map is built here); returns as soon as the
    transfer is self-sustaining.

    Supported endpoint pairs: socket→socket, socket→chardev,
    framebuffer→socket, and input-device→file (recording; bounded size
    required, with real-time overrun semantics — see {!overruns}). A
    file source runs as a splice graph ([Kpath_graph.Graph]), and it
    and anything else raise [Invalid_argument]. A recording's file
    offset must be block-aligned (enforced by {!Endpoint}); its
    destination allocation may raise [Fs_error.Error Enospc]. *)

val state : t -> state

val bytes_moved : t -> int
(** Bytes fully transferred (source read, sink accepted). *)

val total_bytes : t -> int
(** The resolved transfer size; [max_int] for unbounded splices. *)

val pending_writes : t -> int
(** Recording splices: block writes in flight. *)

val overruns : t -> int
(** Recording splices only: bytes dropped because the sink could not
    keep up with the device (pending writes at the watermark when a
    block filled). *)

val on_complete : t -> (t -> unit) -> unit
(** Register a callback fired (in interrupt context) exactly once, when
    the splice completes or aborts. Fires immediately if already done. *)

val wait : t -> (int, string) result
(** Block the calling process until the splice has finished and drained;
    [Ok bytes] or [Error reason] with the abort reason. Process
    context. *)

val abort : t -> reason:string -> unit
(** Interrupt the transfer; in-flight blocks are drained, then the
    descriptor finishes as [Aborted]. Idempotent. *)

val release : t -> unit
(** Detach a finished datagram/framebuffer splice from its source
    (uninstall upcalls). A recording releases its device by itself;
    calling this on it is a no-op. *)

(** {1 Lifecycle}

    The completion lifecycle splice descriptors share with splice graphs
    ([Kpath_graph.Graph]): a transfer runs until it completes or aborts,
    and finalizes exactly once, after its in-flight I/O has drained. *)

module Life : sig
  type 'a t = {
    mutable st : state;
    mutable finalized : bool;
    mutable callbacks : ('a -> unit) list;  (** newest first *)
  }

  val finalize :
    ctx ->
    cat:string ->
    completed:Stats.key ->
    aborted:Stats.key ->
    'a t ->
    'a ->
    (string -> string) ->
    unit
  (** [finalize ctx ~cat ~completed ~aborted life x describe], once the
      state has settled: trace [describe outcome] under [cat] (outcome
      is ["completed"] or ["aborted: reason"]), count [completed] or
      [aborted], and fire the callbacks on [x]. Later calls do
      nothing. *)

  val on_complete : 'a t -> 'a -> ('a -> unit) -> unit
  (** Register a callback, or fire it on the value at once if finalized. *)

  val wait : cat:string -> 'a t -> (unit -> int) -> (int, string) result
  (** Block on channel [cat] until finalized; [Ok (bytes ())] or
      [Error reason]. Process context. *)
end
