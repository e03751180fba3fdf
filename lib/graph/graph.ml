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
}

let make_ctx dp ~vm_insn_cost = { dp; vm_insn_cost; vm_codes = [] }

let prog_code ctx p =
  match List.assq_opt p ctx.vm_codes with
  | Some code -> code
  | None ->
    let code = Vm_compile.compile p in
    ctx.vm_codes <- (p, code) :: ctx.vm_codes;
    code

let preload_prog ctx p = ignore (prog_code ctx p : Vm_compile.code)

let ctx_stats ctx = Splice.ctx_stats ctx.dp

(* {1 Names}

   A descriptor counts, traces and names itself through one [naming],
   fixed when it is made: splice(2)'s one-edge graphs under [splice.*],
   category "splice" and [sd<n>], every other graph under [graph.*],
   "graph" and [g<n>], with [n] from the one descriptor counter of the
   data-path context. The pump reads the names and never asks which
   call built it. *)

type keys = {
  started : Stats.key; completed : Stats.key; aborted : Stats.key;
  reads_issued : Stats.key; read_hits : Stats.key; cluster_reads : Stats.key;
  retries : Stats.key; writes_issued : Stats.key; cluster_writes : Stats.key;
  block_latency : Stats.key; blocks_aliased : Stats.key;
  payload_snapshots : Stats.key; filter_runs : Stats.key;
  prog_runs : Stats.key; prog_insns : Stats.key; prog_drops : Stats.key;
  prog_redirects : Stats.key; prog_faults : Stats.key;
  edges_completed : Stats.key; edges_aborted : Stats.key;
}

(* The key set under [prefix], each key named by its field. *)
let keys prefix =
  let k name = Stats.key (prefix ^ "." ^ name) in
  { started = k "started"; completed = k "completed"; aborted = k "aborted";
    reads_issued = k "reads_issued"; read_hits = k "read_hits";
    cluster_reads = k "cluster_reads"; retries = k "retries";
    writes_issued = k "writes_issued"; cluster_writes = k "cluster_writes";
    block_latency = k "block_latency_us"; blocks_aliased = k "blocks_aliased";
    payload_snapshots = k "payload_snapshots"; filter_runs = k "filter_runs";
    prog_runs = k "prog_runs"; prog_insns = k "prog_insns";
    prog_drops = k "prog_drops"; prog_redirects = k "prog_redirects";
    prog_faults = k "prog_faults"; edges_completed = k "edges_completed";
    edges_aborted = k "edges_aborted" }

type naming = {
  cat : string;  (* trace category and wait channel *)
  keys : keys;
  prefix : string;  (* the descriptor's name: [prefix] and its number *)
  edge_names : bool;  (* edge [k] traces as "<name> e<k>", else as <name> *)
}

let splice_naming =
  { cat = "splice"; keys = keys "splice"; prefix = "sd"; edge_names = false }

let graph_naming =
  { cat = "graph"; keys = keys "graph"; prefix = "g"; edge_names = true }

let k_areas_made = Stats.key "graph.areas_made"
let k_areas_out = Stats.key "graph.areas_out"
let k_areas_back = Stats.key "graph.areas_back"

let bump ctx k = Stats.incr (Stats.at (ctx_stats ctx) k)

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
  if Cache.spare_areas c = 0 then bump ctx k_areas_made;
  Cache.spare_area c

let claim_area ctx =
  Cache.claim_area ctx.dp.Splice.cache;
  bump ctx k_areas_out

let return_area ctx a =
  Cache.return_area ctx.dp.Splice.cache a;
  bump ctx k_areas_back

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

(* One source block in flight: read done, held for every edge that
   still owes it a release. The reader's hold on the busy buffer is the
   first edge's reference and each further edge pins it, so the edge
   that settles last finds no pin left and releases the buffer. *)
type block = {
  blk_lblk : int;
  blk_buf : Buf.t;
  blk_area : bytes;  (* the buffer's area at read time: the shared data *)
  blk_bytes : int;
  blk_issued : Time.t;
  mutable blk_payload : Payload.t;
      (* Shared refcounted view of the sealed area, created by the first
         TCP sink to ship the block and referenced by every other — the
         fan-out copies nothing. The block's own reference drops when
         the last edge settles; in-flight and unacknowledged segments
         keep it alive after that. The buffer may be reused meanwhile:
         its next read or writer replaces the area rather than writing
         it. *)
}

type edge = {
  e_sink : Endpoint.sink;
  e_num : int;  (* 1-based, in connect order *)
  mutable e_map : int array;  (* file sink: its block table, built at start *)
  (* Mutable only for construction: [connect] builds the edge first so
     each [Prog] stage's emit sink can capture it, then fills this in
     before the edge is ever visible. *)
  mutable e_filters : ifilter list;
  e_has_checksum : bool;  (* a Checksum or Prog stage feeds e_checksum *)
  e_config : Flowctl.config;
  (* Per source block: '\001' while owed, '\002' while lent to a write
     request that reads the block's own area ([write_run]). *)
  mutable e_owed : Bytes.t;
  mutable e_writes : int;  (* write slots taken, kept counting once dead *)
  mutable e_peak_writes : int;
  (* Blocks staged by the read handler for the one callout armed with
     the first of them to drain ([flush]), newest first. *)
  mutable e_staged : block list;
  (* Blocks a flush left past a gap in the stream, ascending, and the
     stream's next block. *)
  mutable e_held : block list;
  mutable e_next : int;
  (* The run being built fills the first [e_run_len] slots of [e_run],
     beside the data each block's stages left (arrays of max_cluster
     slots, made with the edge's first run); it is empty between
     events. *)
  mutable e_run : block array;
  mutable e_run_data : bytes array;
  mutable e_run_len : int;
  mutable e_delivered : int;  (* bytes accepted by the sink *)
  mutable e_done_blocks : int;  (* blocks settled (written or dropped) *)
  mutable e_checksum : int;
  mutable e_kvs : (int * int) list;  (* Prog emits, newest first *)
  mutable e_pace : Time.t;  (* throttle pacing cursor *)
  mutable e_state : edge_state;
}

and edge_state = Active | Edge_done | Dead of string

(* A graph is its one file source and the edges fanning out of it. *)
type t = {
  ctx : ctx;
  naming : naming;
  keys : keys;
  mutable id : int;  (* the descriptor number, taken at start *)
  src_fs : Fs.t;
  src_ino : Inode.t;
  src_off : int;  (* block offset within the source file *)
  src_size : int;  (* requested bytes; -1 = to end of file *)
  mutable total : int;  (* resolved at start *)
  mutable nblocks : int;
  mutable block_size : int;
  mutable map : int array;  (* physical block table, built by bmap *)
  mutable next_read : int;
  (* Cluster slow start (4.3BSD cluster read-ahead ramp): run sizes grow
     1, 2, 4, ... up to max_cluster as reads are issued, so the first
     byte arrives with single-block latency instead of after a full
     cluster's media time. *)
  mutable ramp : int;
  mutable reads : int;  (* pending read requests (clusters) *)
  mutable peak_reads : int;
  inflight : block Inttbl.t;  (* lblk -> block held for the edges *)
  mutable edges : edge list;  (* newest first *)
  mutable retry_armed : bool;
  life : t Splice.Life.t;
  mutable started : bool;
}

let create ctx ?(naming = graph_naming) ~fs ~ino ?(off_blocks = 0)
    ?(size = Splice.eof) () =
  if off_blocks < 0 then invalid_arg "Graph.create: negative offset";
  {
    ctx;
    naming;
    keys = naming.keys;
    id = 0;
    src_fs = fs;
    src_ino = ino;
    src_off = off_blocks;
    src_size = size;
    total = 0;
    nblocks = 0;
    block_size = 0;
    map = [||];
    next_read = 0;
    ramp = 1;
    reads = 0;
    peak_reads = 0;
    inflight = Inttbl.create 16;
    edges = [];
    retry_armed = false;
    life = { Splice.Life.st = Running; finalized = false; callbacks = [] };
    started = false;
  }

let state t = t.life.Splice.Life.st

(* Trace names, made only when a trace line is. *)
let label t = t.naming.prefix ^ string_of_int t.id

let edge_label t e =
  if t.naming.edge_names then Printf.sprintf "%s e%d" (label t) e.e_num
  else label t

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

let edge_pending_writes e = e.e_writes

let edge_peak_pending_writes e = e.e_peak_writes

let bytes_delivered t =
  List.fold_left (fun acc e -> acc + e.e_delivered) 0 t.edges

let total_bytes t = t.total

let pending_reads t = t.reads

let peak_pending_reads t = t.peak_reads

let pinned_blocks t = Inttbl.length t.inflight

let block_checksum ~lblk data len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get data i)) * 0x01000193 land 0xffffffff
  done;
  (* Mix in the position so identical blocks at different offsets do not
     cancel under the per-edge XOR. *)
  (!h lxor ((lblk + 1) * 0x9e3779b9)) land 0xffffffff

(* {1 Block tables (§5.2)} *)

let file_bytes (ino : Inode.t) ~off_blocks ~block_size ~size =
  if size < Splice.eof then invalid_arg "Graph.file_bytes: negative size";
  let avail = max 0 (ino.Inode.size - (off_blocks * block_size)) in
  if size = Splice.eof then avail else min size avail

(* The source's table, by successive [bmap] calls; holes are
   rejected. *)
let source_map fs (ino : Inode.t) ~off_blocks ~nblocks =
  Array.init nblocks (fun i ->
      match Fs.bmap fs ino (off_blocks + i) with
      | Some phys -> phys
      | None -> Fs_error.raise_err (Fs_error.Einval "splice: sparse source"))

(* How many entries from [lblk] on are physically consecutive: at least
   1, at most [max] and the table's end. *)
let contiguous map lblk ~max =
  let cap = min max (Array.length map - lblk) and phys = map.(lblk) in
  let rec grow i =
    if i < cap && map.(lblk + i) = phys + i then grow (i + 1) else i
  in
  grow 1

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
      e_sink = sink;
      e_num = List.length t.edges + 1;
      e_map = [||];
      e_filters = [];
      e_has_checksum =
        List.exists
          (function
            | Checksum | Prog _ -> true
            | Throttle _ | Tee _ -> false)
          filters;
      e_config = config;
      e_owed = Bytes.empty;
      e_writes = 0;
      e_peak_writes = 0;
      e_staged = [];
      e_held = [];
      e_next = 0;
      e_run = [||];
      e_run_data = [||];
      e_run_len = 0;
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
  t.edges <- e :: t.edges;
  e

(* {1 Completion} *)

let finalize t =
  Splice.Life.finalize t.ctx.dp ~cat:t.naming.cat ~completed:t.keys.completed
    ~aborted:t.keys.aborted t.life t (fun outcome ->
      Printf.sprintf "%s %s (%d bytes moved)" (label t) outcome
        (bytes_delivered t))

let on_complete t cb = Splice.Life.on_complete t.life t cb

let[@kpath.blocks] wait t =
  Splice.Life.wait ~cat:t.naming.cat t.life (fun () -> bytes_delivered t)

let is_live e = match e.e_state with Active -> true | Edge_done | Dead _ -> false

let running t =
  match state t with Running -> true | Completed | Aborted _ -> false

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

let count t k = bump t.ctx k

let tr t msg =
  match t.ctx.dp.Splice.trace with
  | Some tc -> Trace.emit tc ~cat:t.naming.cat msg
  | None -> ()

let charge t = Splice.charge t.ctx.dp

let cache t = t.ctx.dp.Splice.cache

let callout t = t.ctx.dp.Splice.callout

let now t = Engine.now t.ctx.dp.Splice.engine

(* The live edges, in connect order. *)
let live_edges t =
  List.fold_left (fun acc e -> if is_live e then e :: acc else acc) [] t.edges

let has_live t = List.exists is_live t.edges

let pending_writes t = List.fold_left (fun acc e -> acc + e.e_writes) 0 t.edges

let add_read t =
  t.reads <- t.reads + 1;
  t.peak_reads <- Int.max t.peak_reads t.reads

let add_write e =
  e.e_writes <- e.e_writes + 1;
  e.e_peak_writes <- Int.max e.e_peak_writes e.e_writes

(* How many read requests the source may issue right now: each live
   edge's flow control ([Flowctl.reads_to_issue] on the source's pending
   read requests and the edge's pending write requests) caps the burst,
   so backpressure propagates from the slowest sink and a stalled edge
   cannot pile the buffer cache full. The fold stops at the first edge
   that allows nothing, and it walks the edges newest first: blocks are
   handed to the edges in connect order, so the newest drain last and
   are the likeliest to be at their watermark (DESIGN §10 has the
   counts). *)
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

let owes e (blk : block) = Bytes.unsafe_get e.e_owed blk.blk_lblk <> '\000'

(* Drop edge [e]'s reference on [blk], if still owed. The edge that
   finds no pin left holds the last reference: the block leaves the
   in-flight table and its buffer is released (exactly once). *)
let[@kpath.intr] settle_ref t (e : edge) (blk : block) =
  if owes e blk then begin
    Bytes.unsafe_set e.e_owed blk.blk_lblk '\000';
    let b = blk.blk_buf in
    if b.Buf.b_refs > 0 then Cache.unpin (cache t) b
    else begin
      Inttbl.remove t.inflight blk.blk_lblk;
      (* TCP connections still streaming the block hold their own
         payload references. *)
      Payload.release blk.blk_payload;
      blk.blk_payload <- Payload.none;
      Histogram.add
        (Stats.hist (ctx_stats t.ctx) t.keys.block_latency)
        (int_of_float (Time.to_us_f (Time.diff (now t) blk.blk_issued)));
      Cache.brelse (cache t) b
    end
  end

(* Give back [data] if it is a program's private copy of [blk] rather
   than the block's shared area. *)
let release_copy t (blk : block) data =
  if data != blk.blk_area then return_area t.ctx data

(* The refcounted payload over [blk]'s shared area, made by the first
   TCP edge to ship the block; every other TCP edge streams views of the
   same one. Sealing the area (a device read already did, unless the
   block was a dirty cache hit) keeps it unchanged after the buffer
   recycles: any later writer of the buffer takes a private area
   first. *)
let block_payload t (blk : block) =
  if Payload.is_none blk.blk_payload then begin
    blk.blk_buf.Buf.b_sealed <- true;
    blk.blk_payload <- Payload.of_bytes blk.blk_area;
    count t t.keys.payload_snapshots
  end;
  blk.blk_payload

(* {1 The pump: read side (§5.5), read handler (§5.3), write side
   (§5.4)} *)

let[@kpath.intr] rec issue_reads t n =
  if n > 0 && running t && t.next_read < t.nblocks && has_live t
  then begin
    let lblk = t.next_read in
    let phys = t.map.(lblk) in
    (* Cluster sizing: how many of the coming blocks are physically
       contiguous on the source, capped by the ramp and the cache's
       cluster bound. Flow control counts requests, not blocks — a
       cluster occupies one watermark slot, like one disksort entry in
       the BSD driver. With max_cluster = 1 the run is always 1 and
       [Cache.breadn] degenerates to the per-block [bread_nb]. *)
    let mc = Cache.max_cluster (cache t) in
    let run = contiguous t.map lblk ~max:(Int.min t.ramp mc) in
    t.ramp <- Int.min mc (t.ramp * 2);
    (* One handler activation per cluster completion: the member fan-out
       runs back-to-back in one event, so only the first member pays the
       callout cost — the interrupt-coalescing credit of §7 — and
       snapshots the live edges, so the cluster is aliased as a unit.
       The last member retires the request's watermark slot, so the
       graph cannot drain while members are still busy. Every member's
       latency runs from the issue instant, taken once [breadn] returns:
       a RAM disk read from process context has consumed its copy time
       by then. *)
    let first = ref true and left = ref 0 and live = ref [] in
    let issued = ref Time.zero in
    match
      Cache.breadn (cache t) (Fs.dev t.src_fs) phys ~n:run ~iodone:(fun b ->
          if !first then begin
            first := false;
            charge t;
            live := live_edges t
          end;
          decr left;
          if !left = 0 then t.reads <- t.reads - 1;
          read_done t ~live:!live ~issued:!issued b.Buf.b_lblkno b)
    with
    | `Busy ->
      (* Out of clean buffers (or the block is held elsewhere): try
         again on the next clock tick. *)
      count t t.keys.retries;
      if not t.retry_armed then begin
        t.retry_armed <- true;
        ignore
          (Callout.timeout (callout t) ~ticks:1 (fun () ->
               t.retry_armed <- false;
               issue_reads t (Int.max 1 (burst_for t))))
      end
    | `Hit b ->
      t.next_read <- lblk + 1;
      add_read t;
      b.Buf.b_lblkno <- lblk;
      count t t.keys.read_hits;
      charge t;
      t.reads <- t.reads - 1;
      read_done t ~live:(live_edges t) ~issued:(now t) lblk b;
      issue_reads t (n - 1)
    | `Started members ->
      let k = List.length members in
      left := k;
      issued := now t;
      List.iteri
        (fun i (b : Buf.t) ->
          b.Buf.b_lblkno <- lblk + i;
          count t t.keys.reads_issued)
        members;
      t.next_read <- lblk + k;
      add_read t;
      if k > 1 then count t t.keys.cluster_reads;
      tr t (fun () ->
          if k = 1 then
            Printf.sprintf "%s read lblk %d -> phys %d (pending r=%d w=%d)"
              (label t) lblk phys t.reads (pending_writes t)
          else
            Printf.sprintf
              "%s clustered read lblk %d..%d -> phys %d (pending r=%d w=%d)"
              (label t) lblk (lblk + k - 1) phys t.reads (pending_writes t));
      issue_reads t (n - 1)
  end

(* Read handler (interrupt context; the caller charged the activation
   and retired the request's slot): hand the buffer to every live edge.
   The block is read from the device exactly once, however many edges
   share it. [live] is the edge set it is aliased to and [issued] the
   instant its read was issued. *)
and[@kpath.intr] read_done t ~live ~issued lblk (b : Buf.t) =
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
          blk_area = b.Buf.b_data;
          (* the final block may be partial *)
          blk_bytes = Int.min t.block_size (t.total - (lblk * t.block_size));
          blk_issued = issued;
          blk_payload = Payload.none;
        }
      in
      Inttbl.replace t.inflight lblk blk;
      let fanout = List.length live in
      if fanout > 1 then count t t.keys.blocks_aliased;
      tr t (fun () ->
          if fanout = 1 then
            Printf.sprintf "%s read done lblk %d; write via callout head"
              (label t) lblk
          else
            Printf.sprintf
              "%s read done lblk %d; aliased to %d edges via callout head"
              (label t) lblk fanout);
      hand_all t blk ~pin:false live)

and[@kpath.intr] hand_all t blk ~pin = function
  | [] -> ()
  | e :: rest ->
    hand t e blk ~pin;
    hand_all t blk ~pin:true rest

(* Give [blk] to edge [e] (§5.3): stage it for the edge's flush, one
   callout at the head of the list armed with the first staged block. *)
and[@kpath.intr] hand t (e : edge) (blk : block) ~pin =
  if pin then Cache.pin (cache t) blk.blk_buf;
  Bytes.unsafe_set e.e_owed blk.blk_lblk '\001';
  (match e.e_staged with
   | [] -> ignore (Callout.schedule_head (callout t) (fun () -> flush t e))
   | _ :: _ -> ());
  e.e_staged <- blk :: e.e_staged

(* Drain the edge's staged blocks through its filters in stream order:
   a cache hit can complete before the reads issued ahead of it, so the
   blocks past a gap wait, held, for the next flush after it fills.
   Blocks reaching the sink collect into runs ([sink_write]), and every
   write request takes its write slot when it is issued. *)
and[@kpath.intr] flush t (e : edge) =
  (* Blocks are usually staged in ascending order, with none held: only
     then is the reversed list the batch. *)
  let rec descending = function
    | a :: (b :: _ as rest) -> a.blk_lblk > b.blk_lblk && descending rest
    | [] | [ _ ] -> true
  in
  let batch =
    match e.e_held with
    | [] when descending e.e_staged -> List.rev e.e_staged
    | held ->
      List.sort
        (fun a b -> compare a.blk_lblk b.blk_lblk)
        (List.rev_append held e.e_staged)
  in
  let rec drain = function
    | blk :: rest when blk.blk_lblk = e.e_next ->
      e.e_next <- blk.blk_lblk + 1;
      apply_filters t e blk ~data:blk.blk_area e.e_filters;
      drain rest
    | held -> held
  in
  e.e_staged <- [];
  let held = drain batch in
  (* An edge that died in the flush holds nothing. *)
  e.e_held <- (if is_live e then held else []);
  issue_run t e

(* [data] is the payload the remaining stages see: the shared area, or
   a program's private copy once a [Stp] ran. A copy that will not
   reach a sink goes back to the free list here. *)
and[@kpath.intr] apply_filters t (e : edge) (blk : block) ~data filters =
  if not (owes e blk) then
    (* the edge died with the block on its way *)
    release_copy t blk data
  else
    match filters with
    | [] -> sink_write t e ~via:e ~data blk
    | f :: rest -> (
      count t t.keys.filter_runs;
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
        if Time.(slot > now) then begin
          (* The deferred block holds a write slot while it waits, then
             gives it back and goes on as a run of its own. *)
          add_write e;
          ignore
            (Engine.schedule t.ctx.dp.Splice.engine ~at:slot (fun () ->
                 e.e_writes <- e.e_writes - 1;
                 apply_filters t e blk ~data rest;
                 issue_run t e))
        end
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
   over the shared area the first store copies into the spare area,
   which the block then keeps. *)
and[@kpath.intr] run_prog t (e : edge) (blk : block) ~data pi rest =
  let shared = data == blk.blk_area in
  let into = if shared then spare_area t.ctx else data in
  let r = pi.pi_run ~into ~data ~len:blk.blk_bytes ~lblk:blk.blk_lblk in
  if shared && r.Vm.r_data == into then claim_area t.ctx;
  count t t.keys.prog_runs;
  Stats.add (Stats.at (ctx_stats t.ctx) t.keys.prog_insns) r.Vm.r_steps;
  (* Executed instructions are kernel CPU: charge them to the
     interrupt bucket on top of the per-stage handler activation. *)
  if r.Vm.r_steps > 0 then
    t.ctx.dp.Splice.intr ~service:(Time.scale t.ctx.vm_insn_cost r.Vm.r_steps)
      (fun () -> ());
  match r.Vm.r_verdict with
  | Vm.Pass -> apply_filters t e blk ~data:r.Vm.r_data rest
  | Vm.Drop ->
    release_copy t blk r.Vm.r_data;
    count t t.keys.prog_drops;
    tr t (fun () ->
        Printf.sprintf "%s prog dropped lblk %d" (edge_label t e)
          blk.blk_lblk);
    settle_block t e blk ~bytes:0;
    kick t;
    complete_check t
  | Vm.Redirect k -> (
    (* [k] counts in connect order, from the far end of the newest-first
       edge list; a negative index is as out of range as one past the
       end. *)
    let edges = t.edges in
    let n = List.length edges in
    match if k < 0 || k >= n then None else List.nth_opt edges (n - 1 - k) with
    | Some via ->
      count t t.keys.prog_redirects;
      tr t (fun () ->
          Printf.sprintf "%s prog redirected lblk %d via %s" (edge_label t e)
            blk.blk_lblk (edge_label t via));
      sink_write t e ~via ~data:r.Vm.r_data blk
    | None ->
      release_copy t blk r.Vm.r_data;
      count t t.keys.prog_faults;
      edge_abort_internal t e
        ~reason:(Printf.sprintf "prog redirect: edge index %d out of range" k))
  | Vm.Fault m ->
    release_copy t blk r.Vm.r_data;
    count t t.keys.prog_faults;
    edge_abort_internal t e ~reason:("prog fault: " ^ m)

(* The end of the pipeline: a block for the edge's own sink joins the
   run being built, and a redirected one is a write of its own via a
   sibling's sink. A run takes the stream's next block: on a file only
   where the destination's next block follows on the disk, and never on
   a datagram or device sink, whose unit is the block. *)
and[@kpath.intr] sink_write t (e : edge) ~via ~data (blk : block) =
  if via == e then begin
    let mc = Cache.max_cluster (cache t) and n = e.e_run_len in
    if n > 0 then begin
      let last = e.e_run.(n - 1) in
      let follows =
        blk.blk_lblk = last.blk_lblk + 1
        && n < mc
        &&
        match e.e_sink with
        | Endpoint.Dst_file _ ->
          e.e_map.(blk.blk_lblk) = e.e_map.(last.blk_lblk) + 1
        | Endpoint.Dst_tcp _ -> true
        | Endpoint.Dst_socket _ | Endpoint.Dst_chardev _ -> false
      in
      if not follows then issue_run t e
    end
    else if Array.length e.e_run = 0 then begin
      e.e_run <- Array.make mc blk;
      e.e_run_data <- Array.make mc data
    end;
    e.e_run.(e.e_run_len) <- blk;
    e.e_run_data.(e.e_run_len) <- data;
    e.e_run_len <- e.e_run_len + 1
  end
  else begin
    add_write e;
    write_run t e ~via [| blk |] [| data |]
  end

and[@kpath.intr] issue_run t (e : edge) =
  let n = e.e_run_len in
  if n > 0 then begin
    let blks = Array.sub e.e_run 0 n and datas = Array.sub e.e_run_data 0 n in
    e.e_run_len <- 0;
    add_write e;
    write_run t e ~via:e blks datas
  end

(* Write side (§5.4): one write request for edge [e] — one block, or a
   run consecutive in the stream (and contiguous on a destination file)
   — with one handler activation at issue and one at completion.
   Completion, flow control and delivery accounting stay on [e]; a
   redirect only picks the sink ([via]). The sinks read the blocks' own
   areas, with no copy: a file's store keeps them sealed, and a TCP
   stream carries views of them. A program's private copy goes to a
   file's store as a copy of its own, to TCP through the send buffer's
   copy path, and back to the free list when the write calls back. *)
and[@kpath.intr] write_run t (e : edge) ~via blks datas =
  charge t;
  let k = Array.length blks and blk = blks.(0) in
  let lblk = blk.blk_lblk in
  Stats.add (Stats.at (ctx_stats t.ctx) t.keys.writes_issued) k;
  if k > 1 then begin
    count t t.keys.cluster_writes;
    tr t (fun () ->
        Printf.sprintf "%s clustered write lblk %d..%d -> %s" (edge_label t e)
          lblk (lblk + k - 1)
          (Endpoint.describe_sink via.e_sink))
  end;
  let copies = ref [] in
  for i = 0 to k - 1 do
    if datas.(i) != blks.(i).blk_area then copies := datas.(i) :: !copies
  done;
  let finish = write_done t e blks !copies in
  match via.e_sink with
  | Endpoint.Dst_tcp conn -> (
    (* The run's pieces queue on the connection back to back, in stream
       order, and the connection admits them in that order, so the last
       one's admission completes the request. A program's private copy
       is copied in as it is admitted. *)
    let last = k - 1 in
    try
      for i = 0 to last do
        let b = blks.(i) and data = datas.(i) in
        let admitted = if i = last then fun () -> finish None else ignore in
        if data == b.blk_area then
          Tcp.send_view conn (block_payload t b) ~pos:0 ~len:b.blk_bytes
            admitted
        else Tcp.send_async conn data ~pos:0 ~len:b.blk_bytes admitted
      done
    with Invalid_argument msg -> finish (Some ("tcp sink: " ^ msg)))
  | sink ->
    let file = match sink with Endpoint.Dst_file _ -> true | _ -> false in
    for i = 0 to k - 1 do
      let b = blks.(i) and data = datas.(i) in
      if data == b.blk_area then begin
        (* The request reads the block's own area: it is lent to the sink
           and stays held, by a dead edge too, until the request calls
           back, so the buffer is not reused while a device or a FIFO
           still reads it. A TCP view or a private copy needs no loan. *)
        if file then b.blk_buf.Buf.b_sealed <- true;
        Bytes.unsafe_set e.e_owed b.blk_lblk '\002'
      end
      else if file then datas.(i) <- Bytes.copy data
    done;
    Endpoint.write (cache t) sink ~map:via.e_map ~lblk datas ~len:blk.blk_bytes
      finish

(* Write handler (interrupt context): release the request's slot, settle
   its blocks on [e] — the edge settling last releases each buffer —
   and refill the source's read pipeline. A failed request, or one whose
   edge died meanwhile, only gives back what it was lent. *)
and[@kpath.intr] write_done t (e : edge) blks copies err =
  charge t;
  (match copies with [] -> () | _ -> List.iter (return_area t.ctx) copies);
  e.e_writes <- e.e_writes - 1;
  match err with
  | None when is_live e ->
    for i = 0 to Array.length blks - 1 do
      settle_block t e blks.(i) ~bytes:blks.(i).blk_bytes
    done;
    tr t (fun () ->
        let k = Array.length blks and lblk = blks.(0).blk_lblk in
        if k = 1 then
          Printf.sprintf "%s write done lblk %d (%d/%d bytes)" (edge_label t e)
            lblk e.e_delivered t.total
        else
          Printf.sprintf "%s clustered write done lblk %d..%d (%d/%d bytes)"
            (edge_label t e) lblk (lblk + k - 1) e.e_delivered t.total);
    kick t;
    complete_check t
  | Some _ | None ->
    Array.iter (settle_ref t e) blks;
    Option.iter (fun reason -> edge_abort_internal t e ~reason) err;
    complete_check t

(* Settle one block on an edge: drop the reference, account [bytes]
   delivered (0 when a program dropped the block), and retire the edge
   once every source block has settled. *)
and[@kpath.intr] settle_block t (e : edge) (blk : block) ~bytes =
  settle_ref t e blk;
  e.e_delivered <- e.e_delivered + bytes;
  e.e_done_blocks <- e.e_done_blocks + 1;
  if e.e_done_blocks >= t.nblocks then begin
    e.e_state <- Edge_done;
    count t t.keys.edges_completed
  end

(* Refill the source's read pipeline (flow control, §5.5 applied per
   edge), with a belt-and-braces single read so a source with work left
   can never stall. *)
and[@kpath.intr] kick t =
  if running t then begin
    let burst = burst_for t in
    if burst > 0 then issue_reads t burst;
    if drained t && t.next_read < t.nblocks && has_live t then issue_reads t 1
  end

(* Cut an edge loose: it stops gating the source, and its references on
   blocks not lent to a write request are dropped right away (abandoning
   staged and deferred blocks). A lent block comes back when its request
   calls back, and the graph cannot finish before. *)
and[@kpath.intr] edge_abort_internal t (e : edge) ~reason =
  if e.e_state = Active then begin
    e.e_state <- Dead reason;
    count t t.keys.edges_aborted;
    tr t (fun () -> Printf.sprintf "%s dead: %s" (edge_label t e) reason);
    for i = 0 to e.e_run_len - 1 do
      release_copy t e.e_run.(i) e.e_run_data.(i)
    done;
    e.e_run_len <- 0;
    e.e_staged <- [];
    e.e_held <- [];
    Inttbl.fold
      (fun _ blk acc ->
        if Bytes.unsafe_get e.e_owed blk.blk_lblk = '\002' then acc
        else blk :: acc)
      t.inflight []
    |> List.sort (fun a b -> compare a.blk_lblk b.blk_lblk)
    |> List.iter (settle_ref t e);
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
    file_bytes t.src_ino ~off_blocks:t.src_off ~block_size ~size:t.src_size;
  t.nblocks <- (t.total + block_size - 1) / block_size;
  t.map <-
    source_map t.src_fs t.src_ino ~off_blocks:t.src_off ~nblocks:t.nblocks;
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
          && t.src_off < off_blocks + t.nblocks
          && off_blocks < t.src_off + t.nblocks
        then
          Fs_error.raise_err
            (Fs_error.Einval "splice: source and destination ranges overlap");
        e.e_map <-
          Endpoint.sink_map fs ino ~off_blocks ~nblocks:t.nblocks ~total:t.total
      | Endpoint.Dst_socket _ | Endpoint.Dst_chardev _ | Endpoint.Dst_tcp _ ->
        ())
    edges

let start t =
  if t.started then invalid_arg "Graph.start: already started";
  t.started <- true;
  validate_and_build t;
  t.id <- Splice.fresh_id t.ctx.dp;
  List.iter (fun e -> e.e_owed <- Bytes.make t.nblocks '\000') t.edges;
  count t t.keys.started;
  tr t (fun () -> Printf.sprintf "%s started (%d bytes)" (label t) t.total);
  if t.nblocks = 0 then
    (* An empty source completes its edges immediately. *)
    List.iter
      (fun e ->
        e.e_state <- Edge_done;
        count t t.keys.edges_completed)
      t.edges
  else issue_reads t (burst_for t);
  complete_check t
