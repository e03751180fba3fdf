(** Splice graphs — in-kernel data-path routing.

    The two-endpoint splice of {!Kpath_core.Splice} generalised into a
    fan-out: one file source connected to N sinks by edges (one RZ58
    file streamed to N TCP clients), with

    + {b aliasing}: each source block is read from disk {e once}; the
      buffer is then {e aliased} to every edge under a reference count
      ({!Kpath_buf.Cache.pin}), each edge's write completion drops one
      reference, and the buffer is released when the count drains — the
      paper's no-copy trick, shared N ways;
    + {b filter stages}: a per-edge pipeline of in-kernel stages applied
      to each block between the shared read and that edge's write —
      checksumming, rate throttling, or a tee to an observer.

    Backpressure: every edge carries its own {!Kpath_core.Flowctl}
    watermarks, and the source issues as many new reads as the
    {e tightest} live edge allows: the minimum over those edges of
    {!Kpath_core.Flowctl.reads_to_issue}, so one edge at its write
    watermark pauses the source. A slow sink therefore pauses reads (it
    cannot exhaust the buffer cache), and a dead one can be cut loose
    with {!abort_edge} so it cannot stall the rest of the graph; its
    outstanding references are dropped at that moment, preserving the
    release-exactly-once invariant.

    Graph pumping is asynchronous and runs in interrupt/callout context,
    exactly like splice: {!start} (process context) builds the block
    maps with splice's own set-up ({!Kpath_core.Splice.file_bytes},
    {!Kpath_core.Splice.source_map}, {!Kpath_core.Splice.sink_map}) and
    primes the reads, then returns. Sinks are splice's destination
    endpoints ({!Kpath_core.Endpoint.sink}), written through splice's
    writer ({!Kpath_core.Endpoint.write}) except for the shared TCP
    payloads below. A graph runs on the machine's one data-path context
    ({!Kpath_core.Splice.ctx}): its [graph.*] counters and trace events
    go to that context's registry and trace, and it shares splice's
    completion lifecycle ({!Kpath_core.Splice.Life}). *)

open Kpath_sim
open Kpath_fs

type ctx
(** Graph machinery on the machine's data-path context: the compiled-code
    cache and the graph, node and edge ids. Programs' private copies
    are made in areas from the machine's free list of private block
    areas ({!Kpath_buf.Cache.spare_area}). One per machine. *)

val make_ctx : Kpath_core.Splice.ctx -> vm_insn_cost:Time.span -> ctx
(** [make_ctx dp ~vm_insn_cost] builds on the data-path context [dp]: its
    cache, callout list, interrupt path, handler cost (charged per
    handler or filter-stage activation), counters and trace (category
    ["graph"]). [vm_insn_cost] is the CPU charged per executed
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
    ({!Kpath_core.Splice.ctx_stats}), shared with splices. Graphs count
    [graph.started], [graph.completed],
    [graph.aborted], [graph.reads_issued], [graph.read_hits],
    [graph.writes_issued], [graph.retries], [graph.blocks_aliased],
    [graph.edges_completed], [graph.edges_aborted], [graph.filter_runs];
    for {!filter.Prog} stages also [graph.prog_runs],
    [graph.prog_insns] (executed program instructions),
    [graph.prog_drops],
    [graph.prog_redirects] and [graph.prog_faults]; for the block
    areas of private copies, [graph.areas_made] (fresh areas made
    because the machine's free list was empty), [graph.areas_out]
    (areas lent) and [graph.areas_back] (areas returned — equal to
    [graph.areas_out] once every copy's last reader is done); for TCP
    sinks [graph.payload_snapshots] (payloads made, one per block
    shipped off the shared buffer); plus the
    [graph.block_latency_us] histogram of read-issue to
    last-reference-released times per block, as splice's
    [splice.block_latency_us] (the device read included; a cache hit
    starts at the hit). *)

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
  ctx -> fs:Fs.t -> ino:Inode.t -> ?off_blocks:int -> ?size:int -> unit -> t
(** A fresh graph with no edges, whose source streams [size] bytes
    (default: to end of file) of [ino] from the block-aligned offset
    [off_blocks] (default 0). The size is resolved at {!start} the way a
    splice resolves it ({!Kpath_core.Splice.file_bytes}): clipped to the
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
    On a TCP sink ([Dst_tcp]), blocks shipped straight off the shared
    read buffer are wrapped once in a refcounted payload over the
    buffer's own sealed area ({!Kpath_buf.Buf.b_sealed}) and streamed
    zero-copy ({!Kpath_net.Tcp.send_view}), so a block fanned out to
    every connection is neither copied nor stored twice. The buffer may
    recycle while segments still reference the area: its next read or
    writer replaces the area instead of writing it. A file sink's store
    keeps the area it is written from: the shared buffer's area, sealed,
    or a copy of a program's private area, which goes back to the free
    list. *)

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

val bytes_delivered : t -> int
(** Total bytes written to sinks, summed over edges. *)

val wait : t -> (int, string) result
(** Block the calling process until the graph has finished and drained;
    [Ok bytes] (total delivered) or [Error reason]. Process context. *)

val on_complete : t -> (t -> unit) -> unit
(** Register a callback fired (in interrupt context) exactly once, when
    the graph completes or aborts. Fires immediately if already done. *)

val abort : t -> reason:string -> unit
(** Interrupt the whole graph: every live edge dies, in-flight blocks
    are drained, then the graph completes as [Aborted]. Idempotent. *)

val abort_edge : t -> edge -> reason:string -> unit
(** Cut one edge loose without stopping the graph: its pending writes
    are abandoned and their buffer references dropped immediately, so a
    stalled sink stops gating the others. The graph completes normally
    when the remaining edges finish (or aborts if none remain). *)

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

val source_reads : t -> int
(** Read operations this graph has consumed (device reads it issued plus
    cache hits it reused) — for asserting the single-read invariant. *)

val pinned_blocks : t -> int
(** Source blocks currently aliased (read done, not every edge's write
    complete). *)

val block_checksum : lblk:int -> bytes -> int -> int
(** The digest of one block's first [len] bytes, mixed with its logical
    block number. An edge's [Checksum] filter XORs these digests, so
    tests can recompute the expected value from file contents. *)
