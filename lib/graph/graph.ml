open Kpath_sim
open Kpath_dev
open Kpath_buf
open Kpath_fs
open Kpath_net
open Kpath_core
module Vm = Kpath_vm.Vm
module Vm_compile = Kpath_vm.Compile

type ctx = {
  dp : Splice.ctx;  (* the machine's data-path context *)
  vm_insn_cost : Time.span;
  (* Compiled-code cache, keyed by program identity ([assq]: progs are
     abstract and may carry no structural equality): one program
     attached to a thousand edges is compiled once, at load time. *)
  mutable vm_codes : (Vm.prog * Vm_compile.code) list;
  mutable next_graph : int;
  mutable next_node : int;
  mutable next_edge : int;
}

let make_ctx dp ~vm_insn_cost =
  {
    dp;
    vm_insn_cost;
    vm_codes = [];
    next_graph = 1;
    next_node = 1;
    next_edge = 1;
  }

let prog_code ctx p =
  match List.assq_opt p ctx.vm_codes with
  | Some code -> code
  | None ->
    let code = Vm_compile.compile p in
    ctx.vm_codes <- (p, code) :: ctx.vm_codes;
    code

let preload_prog ctx p = ignore (prog_code ctx p : Vm_compile.code)

let ctx_stats ctx = Splice.ctx_stats ctx.dp

let tr ctx msg =
  match ctx.dp.Splice.trace with
  | Some t -> Trace.emit t ~cat:"graph" msg
  | None -> ()

let k_retries = Stats.key "graph.retries"
let k_read_hits = Stats.key "graph.read_hits"
let k_reads_issued = Stats.key "graph.reads_issued"
let k_cluster_reads = Stats.key "graph.cluster_reads"
let k_blocks_aliased = Stats.key "graph.blocks_aliased"
let k_filter_runs = Stats.key "graph.filter_runs"
let k_prog_runs = Stats.key "graph.prog_runs"
let k_prog_drops = Stats.key "graph.prog_drops"
let k_prog_redirects = Stats.key "graph.prog_redirects"
let k_prog_faults = Stats.key "graph.prog_faults"
let k_writes_issued = Stats.key "graph.writes_issued"
let k_payload_snapshots = Stats.key "graph.payload_snapshots"
let k_edges_completed = Stats.key "graph.edges_completed"
let k_edges_aborted = Stats.key "graph.edges_aborted"
let k_started = Stats.key "graph.started"
let k_prog_insns = Stats.key "graph.prog_insns"
let k_completed = Stats.key "graph.completed"
let k_aborted = Stats.key "graph.aborted"
let k_block_latency = Stats.key "graph.block_latency_us"
let k_areas_made = Stats.key "graph.areas_made"
let k_areas_out = Stats.key "graph.areas_out"
let k_areas_back = Stats.key "graph.areas_back"

let count ctx k = Stats.incr (Stats.at (ctx_stats ctx) k)

(* {1 Block areas}

   A program's private copy of a block is made in an area from the
   machine's free list of private block areas ({!Cache.spare_area}),
   and the area goes back once nothing reads it: the BSD mbuf-cluster
   discipline, so a stream of blocks cycles through as many areas as it
   has copies in flight instead of touching fresh pages for every copy.
   The graph counts the areas it made fresh, lent out and got back. *)

(* The area the next copy fills: the free list's head, left there until
   [claim_area] takes it, so a program that stores nothing costs no
   list traffic. *)
let spare_area ctx =
  let c = ctx.dp.Splice.cache in
  if Cache.spare_areas c = 0 then count ctx k_areas_made;
  Cache.spare_area c

let claim_area ctx =
  Cache.claim_area ctx.dp.Splice.cache;
  count ctx k_areas_out

let return_area ctx a =
  Cache.return_area ctx.dp.Splice.cache a;
  count ctx k_areas_back

type state = Splice.state = Running | Completed | Aborted of string

type filter =
  | Checksum
  | Throttle of float
  | Tee of (bytes -> int -> unit)
  | Prog of Vm.prog

(* Per-edge form of a filter stage. [Prog] gains its private VM state
   here (scratch arena and register file), so one [filter list] shared
   across several [connect] calls still gives every edge independent
   cross-block state. Code below matches on this type rather than
   comparing [filter] values: [Tee] carries a closure, so polymorphic
   equality over [filter] is a crash hazard (see kpath-verify's
   poly-compare rule). *)
type prog_inst = {
  pi_prog : Vm.prog;
  (* Backend-resolved runner over the edge's private state, with the
     edge's emit sink already bound — built once at connect, so the
     per-block hot path allocates no closures. [into] is the
     copy-on-write destination ({!Vm_compile.exec}). *)
  pi_run : into:bytes -> data:bytes -> len:int -> lblk:int -> Vm.run;
}

type ifilter =
  | F_checksum
  | F_throttle of float
  | F_tee of (bytes -> int -> unit)
  | F_prog of prog_inst

(* One source block in flight: read done, shared by every outgoing edge
   that still owes an unpin. *)
type block = {
  blk_lblk : int;
  blk_buf : Buf.t;
  blk_bytes : int;
  blk_issued : Time.t;
  blk_owers : unit Inttbl.t;  (* edge id -> owes one unpin *)
  mutable blk_payload : Payload.t;
      (* Shared refcounted view of the buffer's sealed area, created by
         the first TCP sink to ship the block and referenced by every
         other — the fan-out copies nothing. The block's own reference
         drops when the last edge settles; in-flight and unacknowledged
         segments keep it alive after that. The buffer may be reused
         meanwhile: its next read or writer replaces the area rather
         than writing it. *)
}

type edge = {
  e_id : int;
  e_sink : Endpoint.sink;
  mutable e_map : int array;  (* file sink: its block table, built at start *)
  (* Mutable only for construction: [connect] builds the edge first so
     each [Prog] stage's emit sink can capture it, then fills this in
     before the edge is ever visible. *)
  mutable e_filters : ifilter list;
  e_has_checksum : bool;  (* a Checksum or Prog stage feeds e_checksum *)
  e_config : Flowctl.config;
  mutable e_writes : int;  (* pending sink writes *)
  mutable e_delivered : int;  (* bytes accepted by the sink *)
  mutable e_done_blocks : int;  (* blocks settled (written or abandoned) *)
  mutable e_checksum : int;
  mutable e_kvs : (int * int) list;  (* Prog emits, newest first *)
  mutable e_pace : Time.t;  (* throttle pacing cursor *)
  mutable e_state : edge_state;
}

and edge_state = Active | Edge_done | Dead of string

(* A graph is its one file source and the edges fanning out of it. *)
type t = {
  g_id : int;
  ctx : ctx;
  src_id : int;  (* the source's node number in the trace *)
  src_fs : Fs.t;
  src_ino : Inode.t;
  src_off : int;  (* block offset within the source file *)
  src_size : int;  (* requested bytes; -1 = to end of file *)
  mutable total : int;  (* resolved at start *)
  mutable nblocks : int;
  mutable map : int array;  (* physical block table, built by bmap *)
  mutable next_read : int;
  mutable reads : int;  (* pending device reads *)
  mutable consumed : int;  (* reads issued + cache hits reused *)
  inflight : block Inttbl.t;  (* lblk -> aliased block *)
  mutable edges : edge list;  (* newest first *)
  mutable retry_armed : bool;
  life : t Splice.Life.t;
  mutable started : bool;
  mutable block_size : int;
}

let create ctx ~fs ~ino ?(off_blocks = 0) ?(size = Splice.eof) () =
  if off_blocks < 0 then invalid_arg "Graph.create: negative offset";
  let g_id = ctx.next_graph in
  ctx.next_graph <- g_id + 1;
  let src_id = ctx.next_node in
  ctx.next_node <- src_id + 1;
  {
    g_id;
    ctx;
    src_id;
    src_fs = fs;
    src_ino = ino;
    src_off = off_blocks;
    src_size = size;
    total = 0;
    nblocks = 0;
    map = [||];
    next_read = 0;
    reads = 0;
    consumed = 0;
    inflight = Inttbl.create 16;
    edges = [];
    retry_armed = false;
    life = { Splice.Life.st = Running; finalized = false; callbacks = [] };
    started = false;
    block_size = 0;
  }

let state t = t.life.Splice.Life.st

let edges t = List.rev t.edges

let edge_state e =
  match e.e_state with
  | Active -> `Active
  | Edge_done -> `Done
  | Dead reason -> `Dead reason

let edge_delivered e = e.e_delivered

(* Match, don't [List.mem]: e_filters holds closures. *)
let edge_checksum e = if e.e_has_checksum then Some e.e_checksum else None

let edge_emits e = List.rev e.e_kvs

let bytes_delivered t =
  List.fold_left (fun acc e -> acc + e.e_delivered) 0 t.edges

let source_reads t = t.consumed

let pinned_blocks t = Inttbl.length t.inflight

let block_checksum ~lblk data len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get data i)) * 0x01000193 land 0xffffffff
  done;
  (* Mix in the position so identical blocks at different offsets do not
     cancel under the per-edge XOR. *)
  (!h lxor ((lblk + 1) * 0x9e3779b9)) land 0xffffffff

(* Instantiate a [Prog] stage on edge [e]: fetch the program's code
   (compiling through the shared cache on first sight of the program),
   give the edge its private machine state — scratch is never shared,
   even when one filter list is passed to several connects — and bind
   the emit sink once. Key 0 is the checksum convention — folded into
   the edge checksum exactly like the built-in stage; other keys are
   kept as per-edge observations ({!edge_emits}). *)
let make_prog_inst ctx e p =
  let emit k v =
    if k = 0 then e.e_checksum <- (e.e_checksum lxor v) land 0xffffffff
    else e.e_kvs <- (k, v) :: e.e_kvs
  in
  let code = prog_code ctx p in
  let st = Vm_compile.new_state code in
  let run ~into ~data ~len ~lblk =
    Vm_compile.exec ~into code st ~data ~len ~lblk ~emit
  in
  { pi_prog = p; pi_run = run }

let connect t ?(config = Flowctl.default) ?(filters = []) sink =
  if t.started then invalid_arg "Graph.connect: graph already started";
  (match sink with
   | Endpoint.Dst_file { off_blocks; _ } when off_blocks < 0 ->
     invalid_arg "Graph.connect: negative offset"
   | _ -> ());
  List.iter
    (function
      | Throttle rate when not (rate > 0.0) ->
        invalid_arg "Graph.connect: throttle rate must be positive"
      | _ -> ())
    filters;
  let e =
    {
      e_id = t.ctx.next_edge;
      e_sink = sink;
      e_map = [||];
      e_filters = [];
      e_has_checksum =
        List.exists
          (function
            | Checksum | Prog _ -> true
            | Throttle _ | Tee _ -> false)
          filters;
      e_config = config;
      e_writes = 0;
      e_delivered = 0;
      e_done_blocks = 0;
      e_checksum = 0;
      e_kvs = [];
      e_pace = Time.zero;
      e_state = Active;
    }
  in
  e.e_filters <-
    List.map
      (function
        | Throttle rate -> F_throttle rate
        | Checksum -> F_checksum
        | Tee fn -> F_tee fn
        | Prog p -> F_prog (make_prog_inst t.ctx e p))
      filters;
  t.ctx.next_edge <- e.e_id + 1;
  (* Sinks are numbered with the source, so a later graph's source id
     in the trace counts every node added before it. *)
  t.ctx.next_node <- t.ctx.next_node + 1;
  t.edges <- e :: t.edges;
  e

(* {1 Completion} *)

let finalize t =
  Splice.Life.finalize t.ctx.dp ~cat:"graph" ~completed:k_completed
    ~aborted:k_aborted t.life t (fun outcome ->
      Printf.sprintf "g%d %s (%d bytes delivered)" t.g_id outcome
        (bytes_delivered t))

let on_complete t cb = Splice.Life.on_complete t.life t cb

let[@kpath.blocks] wait t =
  Splice.Life.wait ~cat:"graph" t.life (fun () -> bytes_delivered t)

let is_live e = match e.e_state with Active -> true | Edge_done | Dead _ -> false

let drained t = t.reads = 0 && Inttbl.length t.inflight = 0

let complete_check t =
  if not t.life.Splice.Life.finalized then
    match state t with
    | Aborted _ -> if drained t then finalize t
    | Completed -> ()
    | Running ->
      if drained t && not (List.exists is_live t.edges) then begin
        (* If every edge died, the graph as a whole failed; a mix of
           finished and dead edges is a (partial) success the caller can
           inspect per edge. *)
        let first_death =
          List.fold_left
            (fun acc e ->
              match (acc, e.e_state) with
              | None, Dead r -> Some r
              | acc, _ -> acc)
            None (List.rev t.edges)
        in
        (match first_death with
         | Some r when List.for_all (fun e -> e.e_state <> Edge_done) t.edges
           ->
           t.life.st <- Aborted r
         | _ -> t.life.st <- Completed);
        finalize t
      end

let charge t = Splice.charge t.ctx.dp

let cache t = t.ctx.dp.Splice.cache

let now t = Engine.now t.ctx.dp.Splice.engine

(* The live edges, in connect order. *)
let live_edges t =
  List.fold_left (fun acc e -> if is_live e then e :: acc else acc) [] t.edges

let has_live t = List.exists is_live t.edges

(* Bytes carried by logical block [lblk] of the source (the final block
   may be partial). *)
let bytes_for t lblk = Int.min t.block_size (t.total - (lblk * t.block_size))

(* How many new reads the source may issue right now: each live edge's
   flow control ([Flowctl.reads_to_issue] on the source's pending reads
   and the edge's pending writes) caps the burst, so backpressure
   propagates from the slowest sink and a stalled edge cannot pile the
   buffer cache full. The fold stops at the first edge that allows
   nothing, and it walks the edges newest first: blocks are handed to
   the edges in connect order, so the newest drain last and are the
   likeliest to be at their watermark (DESIGN §10 has the counts). *)
let burst_for t =
  let rec min_over n live = function
    | [] -> if live then n else 0
    | e :: rest when not (is_live e) -> min_over n live rest
    | e :: rest -> (
      match
        Flowctl.reads_to_issue e.e_config ~pending_reads:t.reads
          ~pending_writes:e.e_writes
      with
      | 0 -> 0
      | k -> min_over (Int.min n k) true rest)
  in
  min_over max_int false t.edges

(* Drop edge [e]'s reference on [blk], if still owed; [true] when this
   call actually released a reference. The block leaves the in-flight
   table when its last reference drains (release exactly once). *)
let[@kpath.intr] settle_ref t (e : edge) (blk : block) =
  if Inttbl.mem blk.blk_owers e.e_id then begin
    Inttbl.remove blk.blk_owers e.e_id;
    if Inttbl.length blk.blk_owers = 0 then begin
      Inttbl.remove t.inflight blk.blk_lblk;
      (* Last edge settled: drop the block's own payload reference —
         TCP connections still streaming it hold their own. *)
      Payload.release blk.blk_payload;
      blk.blk_payload <- Payload.none;
      Histogram.add
        (Stats.hist (ctx_stats t.ctx) k_block_latency)
        (int_of_float
           (Time.to_us_f (Time.diff (now t) blk.blk_issued)))
    end;
    Cache.unpin (cache t) blk.blk_buf;
    true
  end
  else false

(* Give back [data] if it is a program's private copy of [blk] rather
   than the shared read buffer. *)
let release_copy t (blk : block) data =
  if data != blk.blk_buf.Buf.b_data then return_area t.ctx data

let[@kpath.intr] rec issue_reads t n =
  if n > 0 && state t = Running && t.next_read < t.nblocks && has_live t
  then begin
    let lblk = t.next_read in
    let phys = t.map.(lblk) in
    (* Cluster sizing: physically contiguous source blocks, capped by
       the cache's cluster bound and by this burst's block allowance [n]
       (so the flow-control accounting in [burst_for] stays
       block-accurate). With max_cluster = 1 this is always 1 and
       [Cache.breadn] degenerates to the per-block [bread_nb]. *)
    let run =
      Splice.contiguous t.map lblk
        ~max:(Int.min (Cache.max_cluster (cache t)) n)
    in
    (* The member fan-out of a cluster runs back-to-back in one
       completion event: only the first member pays the handler
       activation (interrupt coalescing, §7), and the live-edge set is
       snapshotted once so every member of the cluster is pinned to the
       same edges — the cluster is aliased as a unit. Every member's
       latency runs from this issue instant. *)
    let first = ref true in
    let live_snap = ref [] in
    let issued = now t in
    match
      Cache.breadn (cache t) (Fs.dev t.src_fs) phys ~n:run ~iodone:(fun b ->
          if !first then begin
            first := false;
            charge t;
            live_snap := live_edges t
          end;
          read_done t ~live:!live_snap ~issued b.Buf.b_lblkno b)
    with
    | `Busy ->
      (* Out of clean buffers (or the block is held elsewhere): try
         again on the next clock tick. *)
      count t.ctx k_retries;
      if not t.retry_armed then begin
        t.retry_armed <- true;
        ignore
          (Callout.timeout t.ctx.dp.Splice.callout ~ticks:1 (fun () ->
               t.retry_armed <- false;
               issue_reads t (Int.max 1 (burst_for t))))
      end
    | `Hit b ->
      t.next_read <- lblk + 1;
      t.reads <- t.reads + 1;
      t.consumed <- t.consumed + 1;
      b.Buf.b_lblkno <- lblk;
      count t.ctx k_read_hits;
      charge t;
      read_done t ~live:(live_edges t) ~issued lblk b;
      issue_reads t (n - 1)
    | `Started members ->
      let k = List.length members in
      List.iteri
        (fun i (b : Buf.t) ->
          b.Buf.b_lblkno <- lblk + i;
          count t.ctx k_reads_issued)
        members;
      t.next_read <- lblk + k;
      t.reads <- t.reads + k;
      t.consumed <- t.consumed + k;
      if k > 1 then count t.ctx k_cluster_reads;
      tr t.ctx (fun () ->
          if k = 1 then
            Printf.sprintf "g%d src%d read lblk %d -> phys %d (pending r=%d)"
              t.g_id t.src_id lblk phys t.reads
          else
            Printf.sprintf
              "g%d src%d clustered read lblk %d..%d -> phys %d (pending r=%d)"
              t.g_id t.src_id lblk (lblk + k - 1) phys t.reads);
      issue_reads t (n - k)
  end

(* Read handler (interrupt context): pin the buffer once per live edge
   and hand each edge its write through the head of the callout list.
   The block is read from the device exactly once, however many edges
   share it. [live] is the edge set the block is aliased to — for a
   clustered read, the caller snapshots it once for all members — and
   [issued] the instant its read was issued. *)
and[@kpath.intr] read_done t ~live ~issued lblk (b : Buf.t) =
  t.reads <- t.reads - 1;
  match state t with
  | Aborted _ ->
    Cache.brelse (cache t) b;
    complete_check t
  | Completed -> assert false
  | Running -> (
    match b.Buf.b_error with
    | Some (Blkdev.Io_error reason) ->
      Cache.brelse (cache t) b;
      abort t ~reason
    | None when live = [] ->
      (* Every consumer died while the read was in flight. *)
      Cache.brelse (cache t) b;
      complete_check t
    | None ->
      let blk =
        {
          blk_lblk = lblk;
          blk_buf = b;
          blk_bytes = bytes_for t lblk;
          blk_issued = issued;
          blk_owers = Inttbl.create 4;
          blk_payload = Payload.none;
        }
      in
      Inttbl.replace t.inflight lblk blk;
      let fanout = List.length live in
      if fanout > 1 then count t.ctx k_blocks_aliased;
      tr t.ctx (fun () ->
          Printf.sprintf "g%d src%d read done lblk %d; aliased to %d edge(s)"
            t.g_id t.src_id lblk fanout);
      List.iter
        (fun e ->
          Cache.pin (cache t) b;
          Inttbl.replace blk.blk_owers e.e_id ();
          e.e_writes <- e.e_writes + 1;
          ignore
            (Callout.schedule_head t.ctx.dp.Splice.callout (fun () ->
                 edge_write_start t e blk)))
        live)

(* Per-edge write side: runs from the callout list against the shared,
   pinned buffer. The filter pipeline is applied first; each stage may
   defer (throttling), so every continuation re-checks that the edge
   still owes this block before touching the data. *)
and[@kpath.intr] edge_write_start t (e : edge) (blk : block) =
  charge t;
  if not (Inttbl.mem blk.blk_owers e.e_id) then ()
  else if e.e_state <> Active then begin
    ignore (settle_ref t e blk);
    complete_check t
  end
  else apply_filters t e blk ~data:blk.blk_buf.Buf.b_data e.e_filters

(* [data] is the payload the remaining stages see: the shared read-side
   buffer, or a program's private copy once a [Stp] ran. A copy that
   will not reach a sink goes back to the free list here. *)
and[@kpath.intr] apply_filters t (e : edge) (blk : block) ~data filters =
  if not (Inttbl.mem blk.blk_owers e.e_id) then release_copy t blk data
  else if e.e_state <> Active then begin
    release_copy t blk data;
    ignore (settle_ref t e blk);
    complete_check t
  end
  else
    match filters with
    | [] -> edge_sink_write t e ~via:e ~data blk
    | f :: rest -> (
      count t.ctx k_filter_runs;
      charge t;
      match f with
      | F_checksum ->
        e.e_checksum <-
          e.e_checksum
          lxor block_checksum ~lblk:blk.blk_lblk data blk.blk_bytes;
        apply_filters t e blk ~data rest
      | F_tee fn ->
        fn data blk.blk_bytes;
        apply_filters t e blk ~data rest
      | F_throttle rate ->
        let now = now t in
        let slot = if Time.(e.e_pace > now) then e.e_pace else now in
        e.e_pace <-
          Time.add slot (Time.span_of_bytes ~bytes_per_sec:rate blk.blk_bytes);
        if Time.(slot > now) then
          ignore
            (Engine.schedule t.ctx.dp.Splice.engine ~at:slot (fun () ->
                 apply_filters t e blk ~data rest))
        else apply_filters t e blk ~data rest
      | F_prog pi -> run_prog t e blk ~data pi rest)

(* Run a verified filter program over one block. The compiled code and
   the emit sink were resolved at connect ({!make_prog_inst}), so this is
   one indirect call per block. Pass continues down the stage pipeline
   (with the program's output payload); the other three verdicts end
   it: Drop settles the block undelivered, Redirect hands the payload
   to a sibling edge's sink (accounting stays on this edge), Fault
   kills the edge like any other edge error. A private copy from an
   earlier stage is this edge's own, so the program writes it in place;
   over the shared buffer the first store copies into the spare area,
   which the block then keeps. *)
and[@kpath.intr] run_prog t (e : edge) (blk : block) ~data pi rest =
  let shared = data == blk.blk_buf.Buf.b_data in
  let into = if shared then spare_area t.ctx else data in
  let r = pi.pi_run ~into ~data ~len:blk.blk_bytes ~lblk:blk.blk_lblk in
  if shared && r.Vm.r_data == into then claim_area t.ctx;
  count t.ctx k_prog_runs;
  Stats.add (Stats.at (ctx_stats t.ctx) k_prog_insns) r.Vm.r_steps;
  (* Executed instructions are kernel CPU: charge them to the
     interrupt bucket on top of the per-stage handler activation. *)
  if r.Vm.r_steps > 0 then
    t.ctx.dp.Splice.intr ~service:(Time.scale t.ctx.vm_insn_cost r.Vm.r_steps)
      (fun () -> ());
  match r.Vm.r_verdict with
  | Vm.Pass -> apply_filters t e blk ~data:r.Vm.r_data rest
  | Vm.Drop ->
    release_copy t blk r.Vm.r_data;
    count t.ctx k_prog_drops;
    tr t.ctx (fun () ->
        Printf.sprintf "g%d e%d prog dropped lblk %d" t.g_id e.e_id
          blk.blk_lblk);
    settle_block t e blk ~bytes:0
  | Vm.Redirect k -> (
    (* [k] counts in connect order, from the far end of the newest-first
       edge list; a negative index is as out of range as one past the
       end. *)
    let edges = t.edges in
    let n = List.length edges in
    match if k < 0 || k >= n then None else List.nth_opt edges (n - 1 - k) with
    | Some via ->
      count t.ctx k_prog_redirects;
      tr t.ctx (fun () ->
          Printf.sprintf "g%d e%d prog redirected lblk %d via e%d" t.g_id
            e.e_id blk.blk_lblk via.e_id);
      edge_sink_write t e ~via ~data:r.Vm.r_data blk
    | None ->
      release_copy t blk r.Vm.r_data;
      count t.ctx k_prog_faults;
      edge_abort_internal t e
        ~reason:(Printf.sprintf "prog redirect: edge index %d out of range" k))
  | Vm.Fault m ->
    release_copy t blk r.Vm.r_data;
    count t.ctx k_prog_faults;
    edge_abort_internal t e ~reason:("prog fault: " ^ m)

(* Issue the sink write for edge [e], normally via its own sink
   ([via = e]) but possibly via a sibling's after a program redirect.
   Completion, flow control and delivery accounting stay on [e] — the
   redirect only picks which sink receives the payload. *)
and[@kpath.intr] edge_sink_write t (e : edge) ~via ~data (blk : block) =
  count t.ctx k_writes_issued;
  match via.e_sink with
  | Endpoint.Dst_tcp conn when data == blk.blk_buf.Buf.b_data -> (
    (* Unfiltered shared buffer: wrap its area in a refcounted payload
       once, and let every TCP edge stream views of it. Sealing the area
       (a device read already did, unless the block was a dirty cache
       hit) keeps it unchanged after the buffer recycles on unpin: any
       later writer of the buffer takes a private area first. *)
    let k err = edge_write_done t e blk err in
    if Payload.is_none blk.blk_payload then begin
      blk.blk_buf.Buf.b_sealed <- true;
      blk.blk_payload <- Payload.of_bytes blk.blk_buf.Buf.b_data;
      count t.ctx k_payload_snapshots
    end;
    try
      Tcp.send_view conn blk.blk_payload ~pos:0 ~len:blk.blk_bytes (fun () ->
          k None)
    with Invalid_argument msg -> k (Some ("tcp sink: " ^ msg)))
  | sink ->
    (* The sink reads [data] until it calls back, so a private copy goes
       back to the free list only then. A file's store keeps the area it
       is given: the shared buffer's area, sealed, or a copy of a
       program's, whose area goes back to the free list. *)
    let k err =
      release_copy t blk data;
      edge_write_done t e blk err
    in
    let area =
      match sink with
      | Endpoint.Dst_file _ ->
        let buf = blk.blk_buf in
        if data == buf.Buf.b_data then begin
          buf.Buf.b_sealed <- true;
          data
        end
        else Bytes.copy data
      | _ -> data
    in
    Endpoint.write (cache t) sink ~map:via.e_map ~lblk:blk.blk_lblk [| area |]
      ~len:blk.blk_bytes k

(* Write handler for one edge (interrupt context): drop this edge's
   reference (the last one releases the shared buffer), account, and
   refill the source's read pipeline. *)
and[@kpath.intr] edge_write_done t (e : edge) (blk : block) err =
  charge t;
  match err with
  | None -> settle_block t e blk ~bytes:blk.blk_bytes
  | Some reason ->
    let owed = settle_ref t e blk in
    if not owed then complete_check t
    else begin
      e.e_writes <- e.e_writes - 1;
      if e.e_state = Active then edge_abort_internal t e ~reason
      else complete_check t
    end

(* Settle one block on an edge: drop the reference, account [bytes]
   delivered (0 when a program dropped the block), retire the edge once
   every source block has settled, and refill the pipeline. Shared by
   the write-completion and program-drop paths so either way the
   reference is released exactly once. *)
and[@kpath.intr] settle_block t (e : edge) (blk : block) ~bytes =
  let owed = settle_ref t e blk in
  if not owed then complete_check t
  else begin
    e.e_writes <- e.e_writes - 1;
    match e.e_state with
    | Active ->
      e.e_delivered <- e.e_delivered + bytes;
      e.e_done_blocks <- e.e_done_blocks + 1;
      tr t.ctx (fun () ->
          Printf.sprintf "g%d e%d write done lblk %d (%d/%d bytes)" t.g_id
            e.e_id blk.blk_lblk e.e_delivered t.total);
      if e.e_done_blocks >= t.nblocks then begin
        e.e_state <- Edge_done;
        count t.ctx k_edges_completed;
        tr t.ctx (fun () ->
            Printf.sprintf "g%d e%d completed (%d bytes)" t.g_id e.e_id
              e.e_delivered)
      end;
      kick t;
      complete_check t
    | Edge_done | Dead _ -> complete_check t
  end

(* Refill the source's read pipeline (flow control, §5.5 applied per
   edge), with a belt-and-braces single read so a source with work left
   can never stall. *)
and[@kpath.intr] kick t =
  if state t = Running then begin
    let burst = burst_for t in
    if burst > 0 then issue_reads t burst;
    if drained t && t.next_read < t.nblocks && has_live t then issue_reads t 1
  end

(* Cut an edge loose: its outstanding references are dropped right away
   (abandoning any in-flight writes), so the shared buffers it was
   holding can drain and the source stops being gated by it. *)
and[@kpath.intr] edge_abort_internal t (e : edge) ~reason =
  if e.e_state = Active then begin
    e.e_state <- Dead reason;
    e.e_writes <- 0;
    count t.ctx k_edges_aborted;
    tr t.ctx (fun () ->
        Printf.sprintf "g%d e%d dead: %s" t.g_id e.e_id reason);
    let blocks =
      Inttbl.fold (fun _ blk acc -> blk :: acc) t.inflight []
      |> List.sort (fun a b -> compare a.blk_lblk b.blk_lblk)
    in
    List.iter (fun blk -> ignore (settle_ref t e blk)) blocks;
    kick t;
    complete_check t
  end

and abort t ~reason =
  match state t with
  | Completed | Aborted _ -> ()
  | Running ->
    t.life.st <- Aborted reason;
    List.iter
      (fun e -> if e.e_state = Active then edge_abort_internal t e ~reason)
      t.edges;
    complete_check t

let abort_edge t e ~reason =
  if not (List.memq e t.edges) then
    invalid_arg "Graph.abort_edge: edge not in this graph";
  if state t = Running then edge_abort_internal t e ~reason

(* {1 Setup} *)

let ranges_overlap a_lo a_len b_lo b_len =
  a_lo < b_lo + b_len && b_lo < a_lo + a_len

let validate_and_build t =
  if t.edges = [] then invalid_arg "Graph.start: no edges";
  let edges = List.rev t.edges in
  (* One block size across the graph. *)
  let block_size = Fs.block_size t.src_fs in
  t.block_size <- block_size;
  List.iter
    (fun e ->
      match e.e_sink with
      | Endpoint.Dst_file { fs; _ } ->
        if Fs.block_size fs <> block_size then
          invalid_arg "Graph.start: mismatched block sizes"
      | Endpoint.Dst_socket _ ->
        if block_size > 8192 then
          invalid_arg "Graph.start: block size exceeds datagram limit"
      | Endpoint.Dst_chardev _ | Endpoint.Dst_tcp _ -> ())
    edges;
  (* Resolve the source size and build its physical block table. *)
  t.total <-
    Splice.file_bytes t.src_ino ~off_blocks:t.src_off ~block_size
      ~size:t.src_size;
  t.nblocks <- (t.total + block_size - 1) / block_size;
  t.map <-
    Splice.source_map t.src_fs t.src_ino ~off_blocks:t.src_off
      ~nblocks:t.nblocks;
  (* File sinks' block tables. *)
  List.iter
    (fun e ->
      match e.e_sink with
      | Endpoint.Dst_file { fs; ino; off_blocks } ->
        (* Writing onto a range the source is concurrently reading would
           corrupt the shared buffers. *)
        if
          t.src_fs == fs
          && t.src_ino.Inode.ino = ino.Inode.ino
          && ranges_overlap t.src_off t.nblocks off_blocks t.nblocks
        then
          Fs_error.raise_err
            (Fs_error.Einval "graph: source and destination ranges overlap");
        e.e_map <-
          Splice.sink_map fs ino ~off_blocks ~nblocks:t.nblocks ~total:t.total
      | Endpoint.Dst_socket _ | Endpoint.Dst_chardev _ | Endpoint.Dst_tcp _ ->
        ())
    edges

let start t =
  if t.started then invalid_arg "Graph.start: already started";
  t.started <- true;
  validate_and_build t;
  count t.ctx k_started;
  tr t.ctx (fun () ->
      let n = List.length t.edges in
      Printf.sprintf "g%d started (1 source(s), %d sink(s), %d edge(s))" t.g_id
        n n);
  if t.nblocks = 0 then
    (* An empty source completes its edges immediately. *)
    List.iter
      (fun e ->
        if e.e_state = Active then begin
          e.e_state <- Edge_done;
          count t.ctx k_edges_completed
        end)
      t.edges
  else kick t;
  complete_check t
