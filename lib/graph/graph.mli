(** Splice graphs — in-kernel data-path routing, and the one file pump.

    One file source connected to N sinks by edges (one RZ58 file
    streamed to N TCP clients), pumped by the paper's §5 descriptor
    mechanism: block tables built with [bmap], [b_iodone] read and write
    handlers chained through the callout list, and the §5.5 watermarks.
    splice(2) from a file is a graph with one edge ([Syscall.splice],
    {!splice_naming}); this module owns every file source. On top of
    the two-endpoint splice a graph adds

    + {b aliasing}: each source block is read from disk {e once}; the
      reader's hold on the buffer serves the first edge and each further
      edge pins it ({!Kpath_buf.Cache.pin}), and the edge that settles
      last releases it — the paper's no-copy trick, shared N ways;
    + {b filter stages}: a per-edge pipeline of in-kernel stages applied
      to each block between the shared read and that edge's write —
      checksumming, rate throttling, a tee to an observer, or a verified
      program.

    The pump, for every graph alike:

    - {b reads} are clustered ([Kpath_buf.Cache.breadn]) over physically
      contiguous source blocks, and their size ramps 1, 2, 4, ... up to
      the cache's [max_cluster] (4.3BSD's cluster read-ahead). One
      cluster is one read request: one handler activation at completion
      and one watermark slot, like one disksort entry;
    - {b writes} are staged: each edge drains the blocks completing in
      one event with one callout, in stream order (a block that a cache
      hit brings ahead of reads still in flight waits for them), and
      each run of blocks consecutive in the stream becomes one write
      request, with one handler activation at issue and one at
      completion (4.3BSD [cluster_wbuild]). A file or TCP run holds at
      most [max_cluster] blocks, a file's also consecutive on the
      destination; a datagram or character-device run is one block,
      the sink's unit. A TCP run queues its blocks on the connection
      back to back and completes when the last one is admitted to the
      send buffer;
    - {b backpressure}: every edge carries its own {!Kpath_core.Flowctl}
      watermarks over the source's pending read requests and its own
      pending write requests, and the source issues as many new read
      requests as the {e tightest} live edge allows (the minimum over
      those edges of {!Kpath_core.Flowctl.reads_to_issue}). A slow sink
      therefore pauses reads (it cannot exhaust the buffer cache), and
      a dead one can be cut loose with {!abort_edge} so it cannot stall
      the rest of the graph. A write request takes its slot when it is
      issued, and a block a throttle defers holds one while it waits.
      Requests bound what a graph holds: under the default watermarks
      at most 11 requests of at most [max_cluster] blocks each.

    The pump runs in interrupt/callout context; {!start} (process
    context) builds the block maps and primes the reads. Sinks are
    splice's destination endpoints, written through
    {!Kpath_core.Endpoint.write} except a TCP sink, whose runs the edge
    queues on the connection itself ({!connect}). A graph runs on the machine's one data-path context
    ({!Kpath_core.Splice.ctx}) and shares splice's completion lifecycle
    ({!Kpath_core.Splice.Life}). *)

open Kpath_sim
open Kpath_fs

type ctx
(** Graph machinery on the machine's data-path context: the compiled-code
    cache. Programs' private copies are made in areas from the machine's
    free list of private block areas ({!Kpath_buf.Cache.spare_area}).
    One per machine. *)

val make_ctx : Kpath_core.Splice.ctx -> vm_insn_cost:Time.span -> ctx
(** [make_ctx dp ~vm_insn_cost] builds on the data-path context [dp]: its
    cache, callout list, interrupt path, handler cost (charged per
    handler or filter-stage activation), counters and trace.
    [vm_insn_cost] is the CPU charged per executed
    {!filter.Prog} instruction ([Config.vm_insn_cost] on a machine).
    Programs run as closures compiled from the verified bytecode at load
    time ({!Kpath_vm.Compile}). *)

val preload_prog : ctx -> Kpath_vm.Vm.prog -> unit
(** Warm the context's compiled-code cache for [p]. [Syscall.prog_load]
    calls this so compilation happens at load time, in process context,
    not on the first block through an edge. Attaching a program to any
    number of edges reuses the one compilation. *)

val ctx_stats : ctx -> Stats.t
(** The data-path context's counter registry
    ({!Kpath_core.Splice.ctx_stats}), shared with splices. A graph
    counts under its naming's prefix ([graph.], or [splice.] for
    {!splice_naming}): [started], [completed], [aborted],
    [reads_issued] (blocks read from the device), [read_hits],
    [cluster_reads] (read requests of more than one block),
    [writes_issued] (blocks written), [cluster_writes] (write requests
    of more than one block), [retries],
    [blocks_aliased], [edges_completed], [edges_aborted],
    [filter_runs]; for {!filter.Prog} stages [prog_runs], [prog_insns]
    (executed instructions), [prog_drops], [prog_redirects] and
    [prog_faults]; for TCP sinks [payload_snapshots] (one per block
    shipped off the shared buffer); and the [block_latency_us]
    histogram of read-issue to last-release times per block (a cache
    hit starts at the hit). The block areas of private copies are the
    context's: [graph.areas_made] (made fresh because the machine's free
    list was empty), [graph.areas_out] (lent) and [graph.areas_back]
    (returned, equal to [graph.areas_out] once every copy's last
    reader is done). *)

type naming
(** How a graph counts, traces and names itself, fixed when it is made.
    A graph's default: counters [graph.*], trace category ["graph"],
    and names [g<n>] and [g<n> e<k>] for its [k]-th edge, [n] from the
    data-path context's descriptor counter
    ({!Kpath_core.Splice.fresh_id}). *)

val splice_naming : naming
(** splice(2)'s: counters [splice.*], category ["splice"], and one name
    [sd<n>] for the graph and its edge. *)

(** {1 Building a graph} *)

type t
(** A splice graph: one file source and the edges fanning out of it. *)

type edge
(** A directed source→sink connection. *)

type state = Kpath_core.Splice.state =
  | Running
  | Completed
  | Aborted of string

type filter =
  | Checksum
      (** fold every block into the edge's running checksum
          ({!edge_checksum}); order-independent, so out-of-order write
          completions do not perturb it *)
  | Throttle of float
      (** pace this edge to the given rate in bytes/second; {!connect}
          rejects a rate that is not positive, NaN included *)
  | Tee of (bytes -> int -> unit)
      (** pass each block's (data, length) to an in-kernel observer. The
          data is the shared read buffer's sealed area or a program's
          private copy, and the observer must neither mutate it nor
          keep it past the call: a private copy is recycled. *)
  | Prog of Kpath_vm.Vm.prog
      (** run a verified filter program over each block (charged to the
          simulated CPU per executed instruction). The program's
          verdict decides the block's fate: [Pass] continues down the
          stage pipeline with the program's output payload (a private
          copy if it transformed bytes), [Drop] settles the
          block without delivering it, [Redirect k] delivers it through
          the sink of the graph's [k]-th edge in connect order
          (delivery still accounts to this edge; an out-of-range
          index kills the edge), and [Fault] kills the edge like any
          other edge error. [Emit (0, v)] folds [v] into
          {!edge_checksum} exactly like the built-in [Checksum] stage;
          other keys accumulate in {!edge_emits}. Each edge gets a
          private VM state, so one program value can be attached to
          many edges. The first store over the shared buffer copies the
          block into an area from the context's free list; a later
          program on the edge writes that copy in place. The area goes
          back when the sink's write calls back, or at once when the
          block is dropped, faults or its edge dies. *)

val create :
  ctx ->
  ?naming:naming ->
  fs:Fs.t ->
  ino:Inode.t ->
  ?off_blocks:int ->
  ?size:int ->
  unit ->
  t
(** A fresh graph with no edges, whose source streams [size] bytes
    (default: to end of file) of [ino] from the block-aligned offset
    [off_blocks] (default 0), named by [naming] (default: as a graph).
    The size is resolved at {!start} by {!file_bytes}: clipped to the
    file's end, and a size below -1 is rejected there with
    [Invalid_argument]. *)

val connect :
  t ->
  ?config:Kpath_core.Flowctl.config ->
  ?filters:filter list ->
  Kpath_core.Endpoint.sink ->
  edge
(** Add a sink — any splice destination endpoint — and the edge from the
    source to it. [config] is this edge's flow control (default
    {!Kpath_core.Flowctl.default}); [filters] are applied to each block,
    in order, between the shared read and this edge's write. Raises
    [Invalid_argument] if the graph has started or a file sink's offset
    is negative.

    A file sink ([Dst_file]) is written from its block-aligned offset.
    A TCP sink ([Dst_tcp]) is written one run at a time: the run's
    blocks queue on the connection in stream order, and the request
    completes, settling them all, when the last is admitted to the send
    buffer. Blocks shipped straight off the shared read buffer are
    wrapped once in a refcounted payload over the buffer's own sealed
    area ({!Kpath_buf.Buf.b_sealed}) and streamed zero-copy
    ({!Kpath_net.Tcp.send_view}), so a block fanned out to every
    connection is neither copied nor stored twice; its segments end at
    block boundaries. A program's private copy goes to TCP through the
    send buffer ({!Kpath_net.Tcp.send_async}) and back to the free list
    when its run completes. The buffer may recycle while segments still
    reference the area: its next read or writer replaces the area
    instead of writing it. A file sink's store keeps the area it is
    written from: the shared buffer's area, sealed, or a copy of a
    program's private area, which goes back to the free list. *)

(** {1 Running} *)

val start : t -> unit
(** Validate the topology and launch the transfer. Process context (the
    block maps are built here); returns once the graph is
    self-sustaining. Rules enforced:

    - the graph has at least one edge;
    - the source and every file sink share one block size;
    - the source range must not overlap a file sink's range of the same
      file;
    - UDP sinks require the block size to fit in a datagram.

    Sparse sources raise [Fs_error.Error (Einval _)]; destination
    allocation may raise [Fs_error.Error Enospc]. *)

val state : t -> state

val total_bytes : t -> int
(** The resolved transfer size (after {!start}). *)

val bytes_delivered : t -> int
(** Total bytes written to sinks, summed over edges. *)

val wait : t -> (int, string) result
(** Block the calling process until the graph has finished and drained;
    [Ok bytes] (total delivered) or [Error reason]. Process context. *)

val on_complete : t -> (t -> unit) -> unit
(** Register a callback fired (in interrupt context) exactly once, when
    the graph completes or aborts. Fires immediately if already done. *)

val abort : t -> reason:string -> unit
(** Interrupt the whole graph: every live edge dies, in-flight reads and
    the write requests that read blocks' own areas are drained, then the
    graph completes as [Aborted]. Idempotent. *)

val abort_edge : t -> edge -> reason:string -> unit
(** Cut one edge loose without stopping the graph: it stops gating the
    source at once and its blocks not yet written are released. A write
    request reading a block's own area (a file, character device or
    datagram sink) keeps the block until it calls back; a TCP view or a
    program's private copy carries its data by itself, so a stalled peer
    holds no buffer. The graph completes normally when the remaining
    edges finish (or aborts if none remain). *)

(** {1 Introspection} *)

val edges : t -> edge list
(** Every edge, in connect order. *)

val edge_state : edge -> [ `Active | `Done | `Dead of string ]

val edge_delivered : edge -> int
(** Bytes this edge has written to its sink. *)

val edge_checksum : edge -> int option
(** The running checksum, if the edge carries a [Checksum] or [Prog]
    filter (a program feeds it through key-0 emits; one that never
    emits key 0 reads as [Some 0]). *)

val edge_emits : edge -> (int * int) list
(** Key/value pairs emitted by this edge's [Prog] stages with non-zero
    keys, oldest first. *)

val edge_pending_writes : edge -> int
(** The write slots this edge holds, counted as in the flow-control
    paragraph above. A dead edge keeps counting until its requests call
    back and the blocks a throttle deferred come due; a request to a
    stalled TCP peer may never call back. *)

val edge_peak_pending_writes : edge -> int
(** High-water mark of {!edge_pending_writes}. *)

val pending_reads : t -> int
(** Read requests (clusters) in flight. *)

val peak_pending_reads : t -> int
(** High-water mark of {!pending_reads} — bounded by
    [Flowctl.max_in_flight] of the edges' configurations (tested
    invariant). *)

val pinned_blocks : t -> int
(** Source blocks currently held (read done, not every edge settled). *)

val file_bytes : Inode.t -> off_blocks:int -> block_size:int -> size:int -> int
(** [file_bytes ino ~off_blocks ~block_size ~size] is the number of bytes
    a transfer of [size] bytes ([Splice.eof]: to end of file) from block
    [off_blocks] of [ino] moves: the request clipped to the file's end,
    0 at or past it. Raises [Invalid_argument] for a size below
    [Splice.eof]. The system-call layer charges set-up by it. *)

val block_checksum : lblk:int -> bytes -> int -> int
(** The digest of one block's first [len] bytes, mixed with its logical
    block number. An edge's [Checksum] filter XORs these digests, so
    tests can recompute the expected value from file contents. *)
