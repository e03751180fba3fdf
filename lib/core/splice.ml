open Kpath_sim
open Kpath_dev
open Kpath_buf
open Kpath_fs
open Kpath_net
open Kpath_proc

let k_retries = Stats.key "splice.retries"
let k_read_hits = Stats.key "splice.read_hits"
let k_reads_issued = Stats.key "splice.reads_issued"
let k_cluster_reads = Stats.key "splice.cluster_reads"
let k_writes_issued = Stats.key "splice.writes_issued"
let k_cluster_writes = Stats.key "splice.cluster_writes"
let k_started = Stats.key "splice.started"
let k_dgrams_forwarded = Stats.key "splice.dgrams_forwarded"
let k_dgram_drops = Stats.key "splice.dgram_drops"
let k_frames_forwarded = Stats.key "splice.frames_forwarded"
let k_overruns = Stats.key "splice.overruns"
let k_completed = Stats.key "splice.completed"
let k_aborted = Stats.key "splice.aborted"
let k_block_latency = Stats.key "splice.block_latency_us"

type ctx = {
  engine : Engine.t;
  callout : Callout.t;
  cache : Cache.t;
  intr : service:Time.span -> (unit -> unit) -> unit;
  handler_cost : Time.span;
  stats : Stats.t;
  trace : Trace.t option;
  mutable next_id : int;
}

let make_ctx ~engine ~callout ~cache ~intr ~handler_cost ?trace () =
  {
    engine;
    callout;
    cache;
    intr;
    handler_cost;
    stats = Stats.create ();
    trace;
    next_id = 1;
  }

let emit ctx ~cat msg =
  match ctx.trace with Some t -> Trace.emit t ~cat msg | None -> ()

let tr ctx msg = emit ctx ~cat:"splice" msg

let ctx_stats ctx = ctx.stats

let count ctx k = Stats.incr (Stats.at ctx.stats k)

(* Charge one handler activation to the CPU (interrupt bucket). *)
let charge ctx = ctx.intr ~service:ctx.handler_cost (fun () -> ())

type state = Running | Completed | Aborted of string

module Life = struct
  type 'a t = {
    mutable st : state;
    mutable finalized : bool;
    mutable callbacks : ('a -> unit) list;
  }

  let finalize ctx ~cat ~completed ~aborted life x describe =
    if not life.finalized then begin
      life.finalized <- true;
      emit ctx ~cat (fun () ->
          describe
            (match life.st with
             | Completed -> "completed"
             | Aborted r -> "aborted: " ^ r
             | Running -> "finalized while running!?"));
      count ctx
        (match life.st with
         | Completed -> completed
         | Aborted _ -> aborted
         | Running -> assert false);
      let cbs = List.rev life.callbacks in
      life.callbacks <- [];
      List.iter (fun cb -> cb x) cbs
    end

  let on_complete life x cb =
    if life.finalized then cb x else life.callbacks <- cb :: life.callbacks

  let[@kpath.blocks] wait ~cat life result =
    if not life.finalized then
      Process.block cat (fun waker ->
          life.callbacks <- (fun _ -> waker ()) :: life.callbacks);
    match life.st with
    | Completed -> Ok (result ())
    | Aborted reason -> Error reason
    | Running -> assert false
end

let eof = -1

(* File-source pump state: the splice descriptor proper (§5.2). *)
type file_pump = {
  src_fs : Fs.t;
  src_map : int array;  (* physical block table, built by bmap *)
  sink : Endpoint.sink;
  dst_map : int array;  (* file sinks: the destination's block table *)
  nblocks : int;
  mutable next_read : int;  (* next logical block to read *)
  inflight : Buf.t Inttbl.t;  (* lblk -> source buffer *)
  issue_times : Time.t Inttbl.t;  (* lblk -> read issue instant *)
  mutable retry_armed : bool;  (* a buffer-shortage retry is scheduled *)
  (* Write staging (file sinks): completed source blocks accumulate
     here; one callout drains the batch, coalescing destination-
     contiguous runs of up to max_cluster blocks into single writes. *)
  mutable wq : (int * Buf.t) list;
  mutable wflush_armed : bool;
  (* Cluster slow start (4.3BSD cluster read-ahead ramp): run sizes grow
     1, 2, 4, ... up to max_cluster as sequential progress is made, so
     the first byte arrives with single-block latency instead of after a
     full cluster's media time. *)
  mutable ramp : int;
}

type dgram_pump = {
  dg_src : Udp.t;
  dg_sink : [ `Socket of Udp.t * Udp.addr | `Chardev of Chardev.t ];
}

type frame_pump = { fr_src : Framebuffer.t; fr_sock : Udp.t; fr_dst : Udp.addr; fr_mtu : int }

(* Recording: an input character device streams into a file. The
   destination blocks are preallocated at setup (process context, may
   sleep); the interrupt-context upcall only stages bytes and issues
   asynchronous writes through bare headers, dropping input (an
   overrun) when too many writes are already in flight. *)
type stream_pump = {
  sp_sink : Endpoint.sink;
  sp_map : int array;
  mutable sp_next : int; (* destination block being staged *)
  mutable staged : Bytes.t;
  mutable staged_len : int;
  sp_mic : Micdev.t;
}

type kind =
  | File_pump of file_pump
  | Dgram_pump of dgram_pump
  | Frame_pump of frame_pump
  | Stream_pump of stream_pump

type t = {
  sd_id : int;
  ctx : ctx;
  config : Flowctl.config;
  total : int;
  block_size : int;
  mutable moved : int;
  life : t Life.t;
  mutable reads : int;  (* pending read requests (clusters) *)
  mutable writes : int;  (* pending write requests (runs) *)
  mutable peak_reads : int;
  mutable peak_writes : int;
  mutable overruns : int;  (* recording: bytes dropped *)
  kind : kind;
}

let state t = t.life.Life.st

let bytes_moved t = t.moved

let total_bytes t = t.total

let pending_reads t = t.reads

let pending_writes t = t.writes

let peak_pending_reads t = t.peak_reads

let peak_pending_writes t = t.peak_writes

let overruns t = t.overruns

let inflight_buffers t =
  match t.kind with
  | File_pump p ->
    Inttbl.fold (fun _ b acc -> b :: acc) p.inflight []
    |> List.sort (fun (a : Buf.t) (b : Buf.t) ->
           compare a.Buf.b_lblkno b.Buf.b_lblkno)
  | Dgram_pump _ | Frame_pump _ | Stream_pump _ -> []

let add_read t =
  t.reads <- t.reads + 1;
  t.peak_reads <- Int.max t.peak_reads t.reads

let add_write t =
  t.writes <- t.writes + 1;
  t.peak_writes <- Int.max t.peak_writes t.writes

let release_source t =
  match t.kind with
  | Dgram_pump p -> Udp.set_upcall p.dg_src None
  | Stream_pump p -> Micdev.set_consumer p.sp_mic None
  | File_pump _ | Frame_pump _ -> ()

let finalize t =
  if not t.life.Life.finalized then release_source t;
  Life.finalize t.ctx ~cat:"splice" ~completed:k_completed ~aborted:k_aborted
    t.life t (fun outcome ->
      Printf.sprintf "sd%d %s (%d bytes moved)" t.sd_id outcome t.moved)

let on_complete t cb = Life.on_complete t.life t cb

let[@kpath.blocks] wait t = Life.wait ~cat:"splice" t.life (fun () -> t.moved)

(* Nothing in flight: no pending request, nothing staged. *)
let drained t =
  t.reads = 0 && t.writes = 0
  &&
  match t.kind with
  | File_pump p -> p.wq = []
  | Dgram_pump _ | Frame_pump _ | Stream_pump _ -> true

(* Finalize once the transfer has settled: every byte moved, or aborted
   with nothing left in flight. *)
let[@kpath.intr] settle t =
  match state t with
  | Running ->
    if t.moved >= t.total then begin
      t.life.Life.st <- Completed;
      finalize t
    end
  | Aborted _ -> if drained t then finalize t
  | Completed -> ()

let[@kpath.intr] abort t ~reason =
  if state t = Running then t.life.Life.st <- Aborted reason;
  settle t

let release t =
  if state t <> Running then release_source t
  else invalid_arg "Splice.release: still running"

(* Bytes carried by logical block [lblk] (the final block may be
   partial). *)
let bytes_for t lblk = Int.min t.block_size (t.total - (lblk * t.block_size))

(* {1 Block tables (§5.2)} *)

let file_bytes (ino : Inode.t) ~off_blocks ~block_size ~size =
  if size < eof then invalid_arg "Splice.file_bytes: negative size";
  let avail = max 0 (ino.Inode.size - (off_blocks * block_size)) in
  if size = eof then avail else min size avail

(* Sparse sources are rejected. *)
let source_map fs (ino : Inode.t) ~off_blocks ~nblocks =
  Array.init nblocks (fun i ->
      match Fs.bmap fs ino (off_blocks + i) with
      | Some phys -> phys
      | None -> Fs_error.raise_err (Fs_error.Einval "splice: sparse source"))

(* The special allocating bmap that skips zero-fill, growing the file
   and keeping the cache coherent with the coming write-around. *)
let sink_map fs (ino : Inode.t) ~off_blocks ~nblocks ~total =
  let map =
    Array.init nblocks (fun i ->
        Fs.bmap_alloc fs ino (off_blocks + i) ~zero:false)
  in
  let new_size = (off_blocks * Fs.block_size fs) + total in
  if new_size > ino.Inode.size then begin
    ino.Inode.size <- new_size;
    ino.Inode.dirty <- true
  end;
  Array.iter
    (fun phys -> Cache.invalidate_cached (Fs.cache fs) (Fs.dev fs) phys)
    map;
  map

let contiguous map lblk ~max =
  let cap = min max (Array.length map - lblk) and phys = map.(lblk) in
  let rec grow i =
    if i < cap && map.(lblk + i) = phys + i then grow (i + 1) else i
  in
  grow 1

(* {1 File pump} *)

let src_dev p = Fs.dev p.src_fs

(* Staging insert keeping [wq] sorted by descending lblk: completions
   almost always arrive in ascending order, so the common case is an
   O(1) cons; the rare out-of-order completion walks to its slot. The
   flush then just reverses — no per-flush sort. *)
let wq_insert (p : file_pump) lblk b =
  match p.wq with
  | [] -> p.wq <- [ (lblk, b) ]
  | (l, _) :: _ when l < lblk -> p.wq <- (lblk, b) :: p.wq
  | _ ->
    let rec ins = function
      | ((l, _) as hd) :: tl when l > lblk -> hd :: ins tl
      | rest -> (lblk, b) :: rest
    in
    p.wq <- ins p.wq

let[@kpath.intr] rec issue_reads t (p : file_pump) n =
  if n > 0 && state t = Running && p.next_read < p.nblocks then begin
    let lblk = p.next_read in
    let phys = p.src_map.(lblk) in
    (* Cluster sizing: how many of the coming blocks are physically
       contiguous on the source, capped by the ramp and the cache's
       cluster bound. Flow control counts requests, not blocks — a
       cluster occupies one watermark slot, like one disksort entry in
       the BSD driver. With max_cluster = 1 the run is always 1 and
       [Cache.breadn] degenerates to the per-block [bread_nb]. *)
    let run =
      contiguous p.src_map lblk
        ~max:(Int.min p.ramp (Cache.max_cluster t.ctx.cache))
    in
    p.ramp <- Int.min (Cache.max_cluster t.ctx.cache) (p.ramp * 2);
    (* One handler activation per cluster completion: the member fan-out
       runs back-to-back in one event, so only the first member pays the
       callout cost — the interrupt-coalescing credit of §7. The last
       member retires the request's watermark slot, so the descriptor
       cannot drain while members are still busy. *)
    let first = ref true and left = ref 0 in
    match
      Cache.breadn t.ctx.cache (src_dev p) phys ~n:run ~iodone:(fun b ->
          if !first then begin
            first := false;
            charge t.ctx
          end;
          decr left;
          if !left = 0 then t.reads <- t.reads - 1;
          read_done t p b.Buf.b_lblkno b)
    with
    | `Busy ->
      (* Out of clean buffers: try again on the next clock tick. *)
      count t.ctx k_retries;
      if not p.retry_armed then begin
        p.retry_armed <- true;
        ignore
          (Callout.timeout t.ctx.callout ~ticks:1 (fun () ->
               p.retry_armed <- false;
               let burst =
                 Flowctl.reads_to_issue t.config ~pending_reads:t.reads
                   ~pending_writes:t.writes
               in
               issue_reads t p (Int.max 1 burst)))
      end
    | `Hit b ->
      p.next_read <- lblk + 1;
      add_read t;
      b.Buf.b_lblkno <- lblk;
      count t.ctx k_read_hits;
      Inttbl.replace p.issue_times lblk (Engine.now t.ctx.engine);
      charge t.ctx;
      t.reads <- t.reads - 1;
      read_done t p lblk b;
      issue_reads t p (n - 1)
    | `Started members ->
      let k = List.length members in
      left := k;
      List.iteri
        (fun i (b : Buf.t) ->
          b.Buf.b_lblkno <- lblk + i;
          count t.ctx k_reads_issued;
          Inttbl.replace p.issue_times (lblk + i) (Engine.now t.ctx.engine))
        members;
      p.next_read <- lblk + k;
      add_read t;
      if k > 1 then count t.ctx k_cluster_reads;
      tr t.ctx (fun () ->
          if k = 1 then
            Printf.sprintf "sd%d read lblk %d -> phys %d (pending r=%d w=%d)"
              t.sd_id lblk phys t.reads t.writes
          else
            Printf.sprintf
              "sd%d clustered read lblk %d..%d -> phys %d (pending r=%d w=%d)"
              t.sd_id lblk (lblk + k - 1) phys t.reads t.writes);
      issue_reads t p (n - 1)
  end

(* Read handler: invoked at read completion (interrupt context; the
   caller charges the handler activation and retires the pending-read
   slot — once per cluster). Hands the locked buffer to the write side
   through the head of the callout list (§5.3). *)
and[@kpath.intr] read_done t (p : file_pump) lblk (b : Buf.t) =
  match state t with
  | Aborted _ ->
    Cache.brelse t.ctx.cache b;
    settle t
  | Completed -> assert false
  | Running -> (
    match b.Buf.b_error with
    | Some (Blkdev.Io_error reason) ->
      Cache.brelse t.ctx.cache b;
      abort t ~reason
    | None -> (
      Inttbl.replace p.inflight lblk b;
      tr t.ctx (fun () ->
          Printf.sprintf "sd%d read done lblk %d; write via callout head"
            t.sd_id lblk);
      match p.sink with
      | Endpoint.Dst_file _ ->
        (* Write staging: batch the blocks completing in this event; one
           callout drains them, coalescing dst-contiguous runs into
           single writes. The pending-write slot is taken when a run is
           issued, one per write request. *)
        wq_insert p lblk b;
        if not p.wflush_armed then begin
          p.wflush_armed <- true;
          ignore
            (Callout.schedule_head t.ctx.callout (fun () -> flush_writes t p))
        end
      | Endpoint.Dst_chardev _ | Endpoint.Dst_socket _ | Endpoint.Dst_tcp _ ->
        add_write t;
        ignore
          (Callout.schedule_head t.ctx.callout (fun () ->
               write_run t p lblk [| b.Buf.b_data |]))))

(* Drain the write staging batch: runs that are consecutive both
   logically and on the destination device (split at physical
   discontinuities) become one write each, of at most max_cluster
   blocks. *)
and[@kpath.intr] flush_writes t (p : file_pump) =
  p.wflush_armed <- false;
  (* [wq] is kept sorted descending by [wq_insert]. *)
  let batch = List.rev p.wq in
  p.wq <- [];
  let dst_map = p.dst_map and mc = Cache.max_cluster t.ctx.cache in
  (* The destination store keeps the source buffers' areas themselves:
     sealed, they stay unchanged, as a later writer of such a buffer
     takes a private area first ([Cache.own]). *)
  let seal (b : Buf.t) =
    b.Buf.b_sealed <- true;
    b.Buf.b_data
  in
  let rec go = function
    | [] -> ()
    | (lblk, (b : Buf.t)) :: rest ->
      let rec grab acc k prev rest =
        match rest with
        | (l, (b : Buf.t)) :: tl
          when k < mc && l = prev + 1 && dst_map.(l) = dst_map.(prev) + 1 ->
          grab (seal b :: acc) (k + 1) l tl
        | _ -> (Array.of_list (List.rev acc), rest)
      in
      let areas, rest = grab [ seal b ] 1 lblk rest in
      add_write t;
      write_run t p lblk areas;
      go rest
  in
  go batch

(* Write side (§5.4): runs from the callout list with the data areas of
   the locked source buffers of blocks [lblk ..] — one block, or a run
   contiguous on the destination file — and hands them to the sink; a
   file writes them through one bare header and raises a single
   completion interrupt for the run. The destination store keeps the
   sealed areas by reference, with no copy — the paper's write side
   pointing the destination header at the source buffer's data (§5.4). *)
and[@kpath.intr] write_run t (p : file_pump) lblk areas =
  charge t.ctx;
  let k = Array.length areas in
  if state t <> Running then write_done t p lblk k None
  else begin
    for _ = 1 to k do
      count t.ctx k_writes_issued
    done;
    if k > 1 then begin
      count t.ctx k_cluster_writes;
      tr t.ctx (fun () ->
          Printf.sprintf "sd%d clustered write lblk %d..%d -> phys %d" t.sd_id
            lblk (lblk + k - 1) p.dst_map.(lblk))
    end;
    Endpoint.write t.ctx.cache p.sink ~map:p.dst_map ~lblk areas
      ~len:(bytes_for t lblk) (write_done t p lblk k)
  end

(* Write handler: invoked at the completion of one write request (§5.4)
   covering blocks [lblk .. lblk+k-1]: free the source buffers, account
   every block, and apply flow control (§5.5) once. *)
and[@kpath.intr] write_done t (p : file_pump) lblk k err =
  charge t.ctx;
  t.writes <- t.writes - 1;
  for l = lblk to lblk + k - 1 do
    match Inttbl.find p.inflight l with
    | src_buf ->
      Inttbl.remove p.inflight l;
      Cache.brelse t.ctx.cache src_buf
    | exception Not_found -> ()
  done;
  match err with
  | Some reason -> abort t ~reason
  | None when state t = Running ->
    for l = lblk to lblk + k - 1 do
      t.moved <- t.moved + bytes_for t l;
      match Inttbl.find p.issue_times l with
      | issued ->
        Inttbl.remove p.issue_times l;
        Histogram.add
          (Stats.hist t.ctx.stats k_block_latency)
          (int_of_float
             (Time.to_us_f (Time.diff (Engine.now t.ctx.engine) issued)))
      | exception Not_found -> ()
    done;
    tr t.ctx (fun () ->
        if k = 1 then
          Printf.sprintf "sd%d write done lblk %d (%d/%d bytes)" t.sd_id lblk
            t.moved t.total
        else
          Printf.sprintf "sd%d clustered write done lblk %d..%d (%d/%d bytes)"
            t.sd_id lblk (lblk + k - 1) t.moved t.total);
    if t.moved >= t.total then settle t
    else begin
      let burst =
        Flowctl.reads_to_issue t.config ~pending_reads:t.reads
          ~pending_writes:t.writes
      in
      issue_reads t p burst;
      (* Belt and braces: if nothing is in flight and nothing was
         issued, restart one read so the transfer cannot stall. *)
      if drained t && p.next_read < p.nblocks then issue_reads t p 1
    end
  | None -> settle t

(* {1 Setup} *)

let make_desc ctx ~config ~total ~block_size kind =
  let sd_id = ctx.next_id in
  ctx.next_id <- sd_id + 1;
  count ctx k_started;
  tr ctx (fun () -> Printf.sprintf "sd%d started (%d bytes)" sd_id total);
  {
    sd_id;
    ctx;
    config;
    total;
    block_size;
    moved = 0;
    life = { Life.st = Running; finalized = false; callbacks = [] };
    reads = 0;
    writes = 0;
    peak_reads = 0;
    peak_writes = 0;
    overruns = 0;
    kind;
  }

let start_file_pump ctx ~config ~src_fs ~src_ino ~src_off ~sink ~size =
  let block_size = Fs.block_size src_fs in
  let total = file_bytes src_ino ~off_blocks:src_off ~block_size ~size in
  let nblocks = (total + block_size - 1) / block_size in
  let src_map = source_map src_fs src_ino ~off_blocks:src_off ~nblocks in
  let dst_map =
    match sink with
    | Endpoint.Dst_file { fs = dst_fs; ino = dst_ino; off_blocks } ->
      if Fs.block_size dst_fs <> block_size then
        invalid_arg "Splice.start: mismatched block sizes";
      (* Copying a file onto an overlapping range of itself would read
         blocks the splice is concurrently overwriting. *)
      if
        dst_fs == src_fs
        && dst_ino.Inode.ino = src_ino.Inode.ino
        && src_off < off_blocks + nblocks
        && off_blocks < src_off + nblocks
      then
        Fs_error.raise_err
          (Fs_error.Einval "splice: source and destination ranges overlap");
      sink_map dst_fs dst_ino ~off_blocks ~nblocks ~total
    | Endpoint.Dst_socket _ ->
      if block_size > 8192 then
        invalid_arg "Splice.start: block size exceeds datagram limit";
      [||]
    | Endpoint.Dst_chardev _ | Endpoint.Dst_tcp _ -> [||]
  in
  let pump =
    {
      src_fs;
      src_map;
      sink;
      dst_map;
      nblocks;
      next_read = 0;
      inflight = Inttbl.create 16;
      issue_times = Inttbl.create 16;
      retry_armed = false;
      wq = [];
      wflush_armed = false;
      ramp = 1;
    }
  in
  let t = make_desc ctx ~config ~total ~block_size (File_pump pump) in
  if total = 0 then settle t
  else issue_reads t pump config.Flowctl.read_burst;
  t

let start_dgram_pump ctx ~config ~src_sock ~sink ~size =
  let total = if size = eof then max_int else size in
  if total < 0 then invalid_arg "Splice.start: negative size";
  let dg_sink =
    match sink with
    | Endpoint.Dst_socket { sock; dst } -> `Socket (sock, dst)
    | Endpoint.Dst_chardev cd -> `Chardev cd
    | Endpoint.Dst_file _ | Endpoint.Dst_tcp _ ->
      invalid_arg "Splice.start: unsupported datagram-source sink"
  in
  let pump = { dg_src = src_sock; dg_sink } in
  let t = make_desc ctx ~config ~total ~block_size:0 (Dgram_pump pump) in
  if total = 0 then settle t
  else
    Udp.set_upcall src_sock
      (Some
         (fun dg ->
           if state t = Running then begin
             charge ctx;
             let len = Bytes.length dg.Udp.d_payload in
             (match pump.dg_sink with
              | `Socket (out, dst) -> Udp.sendto out ~dst dg.Udp.d_payload
              | `Chardev cd ->
                let n = Chardev.try_write cd dg.Udp.d_payload 0 len in
                if n < len then count ctx k_dgram_drops);
             t.moved <- t.moved + len;
             count ctx k_dgrams_forwarded;
             settle t
           end));
  t

let start_frame_pump ctx ~config ~fb ~sock ~dst ~size =
  let total = if size = eof then max_int else size in
  if total < 0 then invalid_arg "Splice.start: negative size";
  let mtu = 8192 in
  let pump = { fr_src = fb; fr_sock = sock; fr_dst = dst; fr_mtu = mtu } in
  let t = make_desc ctx ~config ~total ~block_size:0 (Frame_pump pump) in
  let rec loop () =
    Framebuffer.next_frame fb (fun ~seq:_ frame ->
        if state t = Running then begin
          charge ctx;
          let len = Bytes.length frame in
          let rec send off =
            if off < len then begin
              let n = Int.min pump.fr_mtu (len - off) in
              Udp.sendto pump.fr_sock ~dst:pump.fr_dst (Bytes.sub frame off n);
              send (off + n)
            end
          in
          send 0;
          t.moved <- t.moved + len;
          count ctx k_frames_forwarded;
          if t.moved >= t.total then settle t else loop ()
        end)
  in
  if total = 0 then settle t else loop ();
  t

(* {1 Stream (recording) pump} *)

(* The staged area goes to the sink as it is, and the next block is
   staged in a fresh one: a file's store keeps the area itself. *)
let[@kpath.intr] stream_flush_block t (p : stream_pump) =
  let lblk = p.sp_next and data = p.staged and written = p.staged_len in
  p.sp_next <- lblk + 1;
  p.staged <- Bytes.create t.block_size;
  p.staged_len <- 0;
  add_write t;
  count t.ctx k_writes_issued;
  Endpoint.write t.ctx.cache p.sp_sink ~map:p.sp_map ~lblk [| data |]
    ~len:written (fun err ->
      charge t.ctx;
      t.writes <- t.writes - 1;
      match err with
      | Some reason -> abort t ~reason
      | None ->
        if state t = Running then t.moved <- t.moved + written;
        settle t)

(* Interrupt-context chunk arrival from the device. *)
let[@kpath.intr] stream_on_chunk t (p : stream_pump) data =
  if state t = Running then begin
    charge t.ctx;
    let len = Bytes.length data in
    let rec consume off =
      if off < len && state t = Running && p.sp_next < Array.length p.sp_map
      then begin
        let block_target =
          Int.min t.block_size (t.total - (p.sp_next * t.block_size))
        in
        let want = Int.min (block_target - p.staged_len) (len - off) in
        Bytes.blit data off p.staged p.staged_len want;
        p.staged_len <- p.staged_len + want;
        if p.staged_len >= block_target then begin
          if t.writes >= t.config.Flowctl.write_hi then begin
            (* Overrun: the sink cannot keep up; drop this block's worth
               of samples and re-stage the slot. *)
            t.overruns <- t.overruns + p.staged_len;
            count t.ctx k_overruns;
            p.staged_len <- 0
          end
          else stream_flush_block t p
        end;
        consume (off + want)
      end
    in
    consume 0
  end

let start_stream_pump ctx ~config ~mic ~sink ~size =
  if size = eof || size <= 0 then
    Fs_error.raise_err
      (Fs_error.Einval "splice: device capture requires a bounded size");
  match sink with
  | Endpoint.Dst_file { fs; ino; off_blocks } ->
    let block_size = Fs.block_size fs in
    let nblocks = (size + block_size - 1) / block_size in
    let sp_map = sink_map fs ino ~off_blocks ~nblocks ~total:size in
    let pump =
      {
        sp_sink = sink;
        sp_map;
        sp_next = 0;
        staged = Bytes.create block_size;
        staged_len = 0;
        sp_mic = mic;
      }
    in
    let t = make_desc ctx ~config ~total:size ~block_size (Stream_pump pump) in
    Micdev.set_consumer mic (Some (fun data -> stream_on_chunk t pump data));
    t
  | Endpoint.Dst_socket _ | Endpoint.Dst_tcp _ | Endpoint.Dst_chardev _ ->
    invalid_arg "Splice.start: device capture requires a file sink"

let start ctx ~src ~dst ?(config = Flowctl.default) ~size () =
  match src with
  | Endpoint.Src_file { fs; ino; off_blocks } ->
    start_file_pump ctx ~config ~src_fs:fs ~src_ino:ino ~src_off:off_blocks
      ~sink:dst ~size
  | Endpoint.Src_socket sock -> start_dgram_pump ctx ~config ~src_sock:sock ~sink:dst ~size
  | Endpoint.Src_mic mic -> start_stream_pump ctx ~config ~mic ~sink:dst ~size
  | Endpoint.Src_framebuffer fb -> (
    match dst with
    | Endpoint.Dst_socket { sock; dst } -> start_frame_pump ctx ~config ~fb ~sock ~dst ~size
    | Endpoint.Dst_file _ | Endpoint.Dst_chardev _ | Endpoint.Dst_tcp _ ->
      invalid_arg "Splice.start: framebuffer source requires a socket sink")
