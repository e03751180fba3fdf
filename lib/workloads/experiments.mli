(** Experiment drivers regenerating the paper's evaluation (§6).

    Every function builds fresh machines (cold caches, per §6.2's "read
    cache cold start"), runs deterministic simulations, and returns the
    rows the paper's tables report. See EXPERIMENTS.md for paper-vs-
    measured discussion. *)

open Kpath_core
open Kpath_kernel

type disk_kind = [ `Ram | `Rz56 | `Rz58 ]

val disk_name : disk_kind -> string

type setup = {
  machine : Machine.t;
  src_path : string;
  dst_path : string;
  file_bytes : int;
  drives : Kpath_kernel.Machine.drive list;
      (** each physical drive once: [[src; dst]], or [[src]] when
          [same_disk] *)
}

val make_setup :
  disk:disk_kind ->
  ?file_bytes:int ->
  ?same_disk:bool ->
  ?disk_queue:Kpath_dev.Disk.queue_discipline ->
  ?machine_config:Config.t ->
  unit ->
  setup
(** Two drives of the given kind with a filesystem each ([/src], [/dst]),
    the source file written with the verification pattern, everything
    synced and the caches invalidated (cold start). [same_disk] puts
    source and destination on one drive/filesystem instead. Default file
    size: 8 MB. *)

val cold_caches : setup -> unit
(** Re-invalidate every cached block of the set-up's drives (between
    runs). *)

(** {1 Table 2 — throughput} *)

type copy_measure = {
  cm_bytes : int;
  cm_seconds : float;
  cm_kb_per_sec : float;
  cm_verified : bool;  (** destination matched the source pattern *)
  cm_events : int;
      (** simulation events the copy fired (before verification) *)
  cm_requests : int;
      (** device requests completed across the set-up's drives during
          the copy, each with one completion interrupt *)
}

val prepare_copy :
  mode:[ `Cp | `Scp | `Mcp ] ->
  disk:disk_kind ->
  ?file_bytes:int ->
  ?same_disk:bool ->
  ?disk_queue:Kpath_dev.Disk.queue_discipline ->
  ?machine_config:Config.t ->
  ?config:Flowctl.config ->
  unit ->
  setup * (unit -> copy_measure)
(** {!measure_copy}'s cold set-up with its copier spawned, not yet run,
    and the function that runs the copy and measures it — for a caller
    that prepares the machine first (e.g. enables a trace category). *)

val measure_copy :
  mode:[ `Cp | `Scp | `Mcp ] ->
  disk:disk_kind ->
  ?file_bytes:int ->
  ?same_disk:bool ->
  ?disk_queue:Kpath_dev.Disk.queue_discipline ->
  ?machine_config:Config.t ->
  ?config:Flowctl.config ->
  unit ->
  copy_measure
(** One cold copy on an otherwise idle machine; its duration, rate,
    device requests and an end-to-end integrity verdict. [`Mcp] is the
    memory-mapped copier of the §7 comparison. *)

type tput_row = {
  tp_disk : disk_kind;
  tp_scp_kbps : float;
  tp_cp_kbps : float;
  tp_pct_improvement : float;
}

val table2 : ?file_bytes:int -> unit -> tput_row list
(** The three rows of Table 2 (RAM, RZ56, RZ58). *)

(** {1 Table 1 — CPU availability} *)

type avail_row = {
  av_disk : disk_kind;
  av_f_cp : float;  (** test-program slowdown under cp *)
  av_f_scp : float;  (** test-program slowdown under scp *)
  av_improvement : float;  (** F_cp / F_scp *)
  av_pct : float;  (** percentage execution-speed improvement *)
}

val idle_seconds : ops:int -> float
(** Baseline: the test program alone on an idle machine. *)

val slowdown :
  mode:[ `Cp | `Scp ] ->
  disk:disk_kind ->
  ?file_bytes:int ->
  ?pace:float ->
  ?machine_config:Config.t ->
  ops:int ->
  unit ->
  float
(** Test-program slowdown factor while a looping copy contends. With
    [pace] the copy is throttled to that application data rate; without
    it the copy runs at the device's natural maximum. *)

val table1 : ?file_bytes:int -> ?ops:int -> ?pace:float option -> unit -> avail_row list
(** The three rows of Table 1. Default: 2000 ops of 1 ms, both copy
    mechanisms paced to 1 MB/s (a continuous-media rate) so the CPU cost
    of the {e mechanism} is isolated from the transfer rate; pass
    [~pace:None] for the natural-maximum-rate variant (see
    EXPERIMENTS.md for why the RAM row saturates there). *)

val availability_timeline :
  mode:[ `Cp | `Scp ] ->
  disk:disk_kind ->
  ?file_bytes:int ->
  ?pace:float ->
  ?ops:int ->
  ?bucket:Kpath_sim.Time.span ->
  unit ->
  int list
(** Figure-equivalent for Table 1: the test program's completed
    operations per [bucket] (default 250 ms) while the copy loop
    contends — the shape of CPU availability over time. *)

(** {1 Cluster sweep — §7 "larger transfer units"} *)

type cluster_row = {
  cl_cluster : int;  (** [max_cluster] this row ran with *)
  cl_disk : disk_kind;
  cl_scp_kbps : float;  (** splice copy throughput, idle machine *)
  cl_intrs_per_mb : float;
      (** device completion interrupts raised per MB copied (requests
          completed across both drives during the copy) *)
  cl_f_scp : float;
      (** test-program slowdown factor under the paced splice copy *)
}

val measure_cluster :
  disk:disk_kind ->
  ?file_bytes:int ->
  ?ops:int ->
  ?pace:float option ->
  cluster:int ->
  unit ->
  cluster_row
(** One cold splice copy with [max_cluster = cluster]: throughput and
    device interrupts per MB on an idle machine, then the Table 1-style
    availability factor under a paced copy loop. Defaults match
    {!table1}: 2000 ops, copy paced to 1 MB/s. *)

val cluster_sweep :
  disk:disk_kind ->
  ?file_bytes:int ->
  ?ops:int ->
  ?pace:float option ->
  int list ->
  cluster_row list
(** {!measure_cluster} across cluster sizes — the §7 "larger transfer
    units" projection: interrupts per MB fall with the cluster size
    while cluster 1 reproduces the per-block path exactly. *)

(** {1 Ablations and sweeps} *)

val watermark_sweep :
  disk:disk_kind -> ?file_bytes:int -> Flowctl.config list -> (Flowctl.config * copy_measure) list
(** splice throughput under alternative flow-control settings (§5.5). *)

val size_sweep :
  disk:disk_kind -> int list -> (int * copy_measure * copy_measure) list
(** (size, scp, cp) across file sizes — the paper's "alternative sizes
    were statistically indistinguishable" claim. *)

(** {1 Continuous-media playback (the paper's §1/§4 motivation)} *)

type media_measure = {
  md_frames : int;  (** video frames delivered *)
  md_late_frames : int;  (** frames not ready by their timer tick *)
  md_audio_underruns : int;  (** audio DAC starvation events *)
  md_fps : float;  (** achieved video rate *)
  md_player_cpu_sec : float;  (** CPU consumed by the player process(es) *)
}

val measure_media :
  player:[ `Process | `Splice ] ->
  ?load:int ->
  ?seconds:int ->
  ?fps:int ->
  unit ->
  media_measure
(** Play a movie (audio track + timed video frames) from an RZ58 disk to
    rate-paced DACs, while [load] compute-bound processes contend for
    the CPU (default 0). [`Process] pumps both streams with read/write
    loops (one process per stream, as one would without splice);
    [`Splice] is the paper's §4 player: an asynchronous SPLICE_EOF audio
    splice plus one bounded video splice per interval-timer tick.
    Defaults: 5 simulated seconds at 15 fps. *)

(** {1 File serving over TCP (the sendfile path)} *)

type sendfile_measure = {
  sf_verified : bool;
      (** every byte arrived pattern-correct, and every TCP payload
          reference was released ({!Kpath_net.Tcp.view_chunks} is 0) *)
  sf_kb_per_sec : float;
  sf_server_cpu_sec : float;  (** server-machine CPU consumed *)
  sf_retransmits : int;
      (** data segments and FINs the server's connection resent
          ({!Kpath_net.Tcp.retransmits}), read after the run, so resends
          during [close]'s linger count, as in [fo_retransmits] *)
}

val measure_sendfile :
  mode:[ `ReadWrite | `Sendfile ] ->
  ?file_bytes:int ->
  ?loss:float ->
  ?bandwidth:float ->
  ?machine_config:Config.t ->
  unit ->
  sendfile_measure
(** A server machine (RZ58 disk) serves one file over TCP to a client
    machine on the same segment (separate CPUs, one simulated clock):
    {!measure_fanout}'s rig with one client, whose receive buffer is
    64 KB. [`ReadWrite] is the classic read/send loop; [`Sendfile] is a
    file-to-TCP splice — the in-kernel path that later shipped as
    [sendfile(2)]. [loss] injects frame loss (default 0; must be in
    \[0, 1)); default file 4 MB, segment bandwidth 2.5 MB/s. *)

(** {1 Fan-out: one file to N TCP clients (splice graph)} *)

type fanout_measure = {
  fo_clients : int;
  fo_bytes_per_client : int;
  fo_verified : bool;
      (** every client received the whole file, pattern-correct, every
          TCP payload reference was released
          ({!Kpath_net.Tcp.view_chunks} is 0), and every block area the
          graph lent came back ([graph.areas_out] equals
          [graph.areas_back]) *)
  fo_device_reads : int;
      (** physical reads issued while streaming — the single-read
          invariant says this is independent of the client count *)
  fo_seconds : float;  (** stream start to last byte delivered *)
  fo_agg_kb_per_sec : float;  (** aggregate over all clients *)
  fo_server_cpu_sec : float;  (** server-machine CPU consumed *)
  fo_pinned_after : int;
      (** buffers still pinned when the graph finished (leak check: 0) *)
  fo_events : int;
      (** simulation events the whole run fired *)
  fo_prog_runs : int;
      (** filter-program invocations across all edges (0 without a
          [Graph.Prog] stage) *)
  fo_prog_insns : int;  (** bytecode instructions executed *)
  fo_retransmits : int;
      (** data segments and FINs the server's connections resent
          ({!Kpath_net.Tcp.retransmits}, summed) *)
  fo_persist_probes : int;
      (** zero-window probes the server's connections sent
          ({!Kpath_net.Tcp.persist_probes}, summed) *)
  fo_segs_out : int;
      (** segments the server's connections sent, data and control
          ([tcp.segs_out] of {!Kpath_net.Tcp.stats}, summed) *)
}

val measure_fanout :
  ?clients:int ->
  ?file_bytes:int ->
  ?bandwidth:float ->
  ?config:Flowctl.config ->
  ?filters:Kpath_graph.Graph.filter list ->
  ?trace_json:Format.formatter ->
  ?machine_config:Config.t ->
  unit ->
  fanout_measure
(** A server machine (RZ58 disk) streams one file to [clients]
    (default 8) TCP readers on a client machine via a single splice
    graph: each file block is read from the disk once and the buffer is
    aliased to every connection. Each reader has a 512 KB receive
    buffer. Defaults: 1 MB file, 2.5 MB/s segment.
    [config]/[filters] pass through to the graph's edges.
    [trace_json] enables the server's ["graph"] trace category and dumps
    the recorded events to the formatter, one JSON object per line
    ({!Kpath_sim.Trace.dump_json}), when the run finishes. *)

(** {1 Filter-program overhead — edge programs vs built-ins} *)

type prog_row = {
  pr_stage : string;  (** "plain", "checksum", or the program's label *)
  pr_kb_per_sec : float;  (** over the simulated transfer time *)
  pr_cpu_sec : float;  (** simulated CPU the whole copy consumed *)
  pr_runs : int;  (** program invocations (one per block) *)
  pr_insns : int;  (** bytecode instructions executed *)
  pr_checksum : int option;  (** the edge checksum, if the stage feeds one *)
  pr_verified : bool;
      (** the destination carries the source pattern, and every block
          area the graph lent came back ([graph.areas_out] equals
          [graph.areas_back]) *)
}

val measure_prog :
  disk:disk_kind ->
  ?file_bytes:int ->
  stage:
    [ `Plain
    | `Checksum
    | `Prog of string * Kpath_vm.Vm.prog list ]
  ->
  ?machine_config:Config.t ->
  unit ->
  prog_row
(** One cold file-to-file splice-graph copy whose single edge carries
    the given stage: nothing, the built-in [Checksum], or a chain of
    verified filter programs (labelled for reporting; each program sees
    the previous one's output payload). Comparing a [`Prog] row against
    [`Plain] prices the program machinery (simulated CPU per block and
    instructions per block); comparing its [pr_checksum] against the
    [`Checksum] row's proves the program computed the same function.
    [pr_verified] checks the destination against the {e source} pattern,
    so a transforming chain should compose to the identity (e.g. the
    same XOR mask applied twice). *)

(** {1 UDP relay (socket-to-socket splice)} *)

type relay_measure = {
  rm_datagrams : int;  (** datagrams delivered end-to-end *)
  rm_dropped : int;  (** datagrams lost at the relay socket *)
  rm_cpu_busy_frac : float;  (** relay-machine CPU utilisation *)
}

val measure_relay :
  mode:[ `Process | `Splice ] ->
  ?datagrams:int ->
  ?dgram_bytes:int ->
  ?interval_us:int ->
  unit ->
  relay_measure
(** A stub sender streams datagrams through a relay machine to a stub
    sink; the relay either runs a recvfrom/sendto process or a
    socket-to-socket splice. Compares CPU cost and loss. *)
