(** splice() — in-kernel data paths between I/O objects.

    The paper's contribution: move data between two I/O objects entirely
    inside the kernel, asynchronously, with no user-space buffer and no
    per-block process context. For a file-to-file splice the
    implementation follows §5 exactly:

    + setup (process context): determine the size from the source inode,
      allocate a splice descriptor, build the complete physical block
      tables of source and destination by successive [bmap] calls (the
      destination through the special allocating bmap that skips
      zero-fill delayed writes), then return to the caller;
    + read side: a non-blocking [bread] schedules a device read whose
      [B_CALL] handler is the read handler;
    + the read handler schedules the write side at the head of the
      callout list, decoupling source and destination devices; for a
      file destination it stages the block, and one callout drains the
      staged blocks in runs consecutive on the destination (at most
      [max_cluster] long, so possibly one block);
    + the write side ({!Endpoint.write}) takes a bare buffer header,
      points it at the read buffers' data areas (no copy), installs the
      write handler and issues one asynchronous write per run;
    + the write handler releases both buffers and applies rate-based
      flow control: when pending reads and writes are below their
      watermarks, it issues a burst of new reads;
    + when the last block completes the descriptor fires its completion
      callbacks (the syscall layer turns these into SIGIO for [FASYNC]
      splices or a wakeup for synchronous ones).

    Datagram (socket-to-socket), framebuffer-to-socket and
    file-to-character-device splices are pumped analogously; see
    {!start} for the supported endpoint matrix.

    A machine has one data-path context ({!ctx}) for splices and splice
    graphs alike: one cache, callout list, handler cost, trace and
    counter registry, where the graphs' [graph.*] counters live next to
    the [splice.*] ones. Descriptors and graphs share one completion
    lifecycle ({!Life}), and recording splices and graph edges send
    blocks through the same writer. *)

open Kpath_sim
open Kpath_buf
open Kpath_fs

type ctx = private {
  engine : Engine.t;
  callout : Callout.t;
  cache : Cache.t;
  intr : service:Time.span -> (unit -> unit) -> unit;
      (** CPU-interrupt injection *)
  handler_cost : Time.span;  (** CPU per handler activation *)
  stats : Stats.t;
  trace : Trace.t option;
  mutable next_id : int;  (** the next descriptor's id *)
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

val ctx_stats : ctx -> Stats.t
(** The shared counter registry. Splices count [splice.started],
    [splice.reads_issued], [splice.writes_issued], [splice.retries],
    [splice.completed], [splice.aborted] and the
    [splice.block_latency_us] histogram of read-issue to
    write-completion times per block; a datagram source counts
    [splice.dgrams_forwarded], and [splice.dgram_drops] for each
    datagram its character-device sink's FIFO could not take whole.
    Splice graphs count their [graph.*] names here too. *)

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
    [size] bytes ({!eof} for end-of-file semantics). Process context
    (the block maps are built here); returns as soon as the transfer is
    self-sustaining.

    Supported endpoint pairs: file→file, file→chardev, file→socket
    (UDP or TCP), socket→socket, socket→chardev, framebuffer→socket,
    and input-device→file (recording; bounded size required, with
    real-time overrun semantics — see {!overruns}). Anything else
    raises [Invalid_argument]. File offsets must be block-aligned
    (enforced by {!Endpoint}); sparse sources and same-file overlapping
    ranges raise [Fs_error.Error (Einval _)]; destination allocation may
    raise [Fs_error.Error Enospc]. *)

val state : t -> state

val bytes_moved : t -> int
(** Bytes fully transferred (source read, sink accepted). *)

val total_bytes : t -> int
(** The resolved transfer size; [max_int] for unbounded splices. *)

val pending_reads : t -> int

val pending_writes : t -> int

val peak_pending_reads : t -> int
(** High-water mark of in-flight reads — bounded by
    [Flowctl.max_in_flight] (tested invariant). *)

val peak_pending_writes : t -> int

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
    (uninstall upcalls). File splices release resources automatically;
    calling this on them is a no-op. *)

(** {1 Set-up helpers}

    The §5.2 set-up steps {!start} performs for a file source, shared
    with splice graphs ([Kpath_graph.Graph]) and with the system-call
    layer's set-up charge, so every caller resolves sizes and builds
    block tables the same way. Process context: [bmap] may read
    indirect blocks. *)

val file_bytes : Inode.t -> off_blocks:int -> block_size:int -> size:int -> int
(** [file_bytes ino ~off_blocks ~block_size ~size] is the number of bytes
    a splice of [size] bytes ({!eof}: to end of file) from block
    [off_blocks] of [ino] moves: the request clipped to the file's end,
    0 at or past it. Raises [Invalid_argument] for a size below {!eof}. *)

val source_map : Fs.t -> Inode.t -> off_blocks:int -> nblocks:int -> int array
(** The source's physical block table: entry [i] backs logical block
    [off_blocks + i], found by successive [bmap] calls. A hole raises
    [Fs_error.Error (Einval "splice: sparse source")]. *)

val sink_map :
  Fs.t -> Inode.t -> off_blocks:int -> nblocks:int -> total:int -> int array
(** The destination's physical block table, allocated with the special
    [bmap] that skips zero-filling fresh blocks ([Fs.bmap_alloc
    ~zero:false]). The file grows to cover [total] bytes from
    [off_blocks], and cached copies of the mapped blocks are dropped so
    the coming write-around cannot leave them stale. May raise
    [Fs_error.Error Enospc]. *)

val contiguous : int array -> int -> max:int -> int
(** [contiguous map lblk ~max] sizes a clustered transfer from a block
    table: how many entries from [lblk] on are physically consecutive,
    at least 1 and at most [max] and the table's end. *)

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

(** {1 Introspection for tests} *)

val inflight_buffers : t -> Buf.t list
(** Source-side buffers currently held (read done, write not yet
    complete). *)
