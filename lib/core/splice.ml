open Kpath_sim
open Kpath_dev
open Kpath_buf
open Kpath_fs
open Kpath_net
open Kpath_proc

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

let make_ctx ~engine ~callout ~cache ~intr ?(handler_cost = Time.us 25) ?trace
    () =
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

let tr ctx msg =
  match ctx.trace with
  | Some t -> Trace.emit t ~cat:"splice" msg
  | None -> ()

let ctx_stats ctx = ctx.stats

type state = Running | Completed | Aborted of string

let eof = -1

(* File-source pump state: the splice descriptor proper (§5.2). *)
type file_pump = {
  src_fs : Fs.t;
  src_map : int array;  (* physical block table, built by bmap *)
  sink : Endpoint.sink;
  dst_map : int array;  (* file sinks: the destination's block table *)
  nblocks : int;
  mutable next_read : int;  (* next logical block to read *)
  mutable fp_reads : int;  (* pending read requests (clusters) *)
  mutable fp_writes : int;  (* pending write requests (clusters) *)
  mutable peak_reads : int;
  mutable peak_writes : int;
  inflight : (int, Buf.t) Hashtbl.t;  (* lblk -> source buffer *)
  issue_times : (int, Time.t) Hashtbl.t;  (* lblk -> read issue instant *)
  mutable retry_armed : bool;  (* a buffer-shortage retry is scheduled *)
  (* Clustered write staging (file sinks, max_cluster > 1): completed
     source blocks accumulate here; one callout drains the batch,
     coalescing destination-contiguous runs into single writes. *)
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
  mutable dg_drops : int;
}

type frame_pump = { fr_src : Framebuffer.t; fr_sock : Udp.t; fr_dst : Udp.addr; fr_mtu : int }

(* Recording: an input character device streams into a file. The
   destination blocks are preallocated at setup (process context, may
   sleep); the interrupt-context upcall only stages bytes and issues
   asynchronous writes through bare headers, dropping input (an
   overrun) when too many writes are already in flight. *)
type stream_pump = {
  sp_fs : Fs.t;
  sp_map : int array;
  mutable sp_next : int; (* destination block being staged *)
  mutable staged : Bytes.t;
  mutable staged_len : int;
  mutable sp_writes : int;
  mutable sp_overruns : int; (* bytes dropped on overrun *)
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
  mutable st : state;
  mutable callbacks : (t -> unit) list;
  mutable finalized : bool;
  kind : kind;
}

let id t = t.sd_id

let state t = t.st

let bytes_moved t = t.moved

let total_bytes t = t.total

let pending_reads t =
  match t.kind with
  | File_pump p -> p.fp_reads
  | Dgram_pump _ | Frame_pump _ | Stream_pump _ -> 0

let pending_writes t =
  match t.kind with
  | File_pump p -> p.fp_writes
  | Stream_pump p -> p.sp_writes
  | Dgram_pump _ | Frame_pump _ -> 0

let peak_pending_reads t =
  match t.kind with
  | File_pump p -> p.peak_reads
  | Dgram_pump _ | Frame_pump _ | Stream_pump _ -> 0

let peak_pending_writes t =
  match t.kind with
  | File_pump p -> p.peak_writes
  | Dgram_pump _ | Frame_pump _ | Stream_pump _ -> 0

let inflight_buffers t =
  match t.kind with
  | File_pump p ->
    Hashtbl.fold (fun _ b acc -> b :: acc) p.inflight []
    |> List.sort (fun (a : Buf.t) (b : Buf.t) ->
           compare a.Buf.b_lblkno b.Buf.b_lblkno)
  | Dgram_pump _ | Frame_pump _ | Stream_pump _ -> []

let overruns t =
  match t.kind with
  | Stream_pump p -> p.sp_overruns
  | File_pump _ | Dgram_pump _ | Frame_pump _ -> 0

let count ctx name = Stats.incr (Stats.counter ctx.stats name)

(* Charge one handler activation to the CPU (interrupt bucket). *)
let charge t = t.ctx.intr ~service:t.ctx.handler_cost (fun () -> ())

let release_source t =
  match t.kind with
  | Dgram_pump p -> Udp.set_upcall p.dg_src None
  | Stream_pump p -> Micdev.set_consumer p.sp_mic None
  | File_pump _ | Frame_pump _ -> ()

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    tr t.ctx (fun () ->
        Printf.sprintf "sd%d %s (%d bytes moved)" t.sd_id
          (match t.st with
           | Completed -> "completed"
           | Aborted r -> "aborted: " ^ r
           | Running -> "finalized while running!?")
          t.moved);
    release_source t;
    count t.ctx
      (match t.st with
       | Completed -> "splice.completed"
       | Aborted _ -> "splice.aborted"
       | Running -> assert false);
    let cbs = List.rev t.callbacks in
    t.callbacks <- [];
    List.iter (fun cb -> cb t) cbs
  end

let on_complete t cb =
  if t.finalized then cb t else t.callbacks <- cb :: t.callbacks

let[@kpath.blocks] wait t =
  let finished () = t.st <> Running in
  if not (finished ()) then
    Process.block "splice" (fun waker -> on_complete t (fun _ -> waker ()));
  (* The callback fires at finalize, after the state settles. *)
  match t.st with
  | Completed -> Ok t.moved
  | Aborted reason -> Error reason
  | Running -> assert false

(* Bytes carried by logical block [lblk] (the final block may be
   partial). *)
let bytes_for t lblk = min t.block_size (t.total - (lblk * t.block_size))

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

let drained p = p.fp_reads = 0 && p.fp_writes = 0 && p.wq = []

let complete_if_done t (p : file_pump) =
  match t.st with
  | Running ->
    if t.moved >= t.total then begin
      t.st <- Completed;
      finalize t
    end
  | Aborted _ -> if drained p then finalize t
  | Completed -> ()

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
  if n > 0 && t.st = Running && p.next_read < p.nblocks then begin
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
        ~max:(min p.ramp (Cache.max_cluster t.ctx.cache))
    in
    p.ramp <- min (Cache.max_cluster t.ctx.cache) (p.ramp * 2);
    (* One handler activation per cluster completion: the member fan-out
       runs back-to-back in one event, so only the first member pays the
       callout cost — the interrupt-coalescing credit of §7 — and
       retires the request's watermark slot. *)
    let first = ref true in
    match
      Cache.breadn t.ctx.cache (src_dev p) phys ~n:run ~iodone:(fun b ->
          if !first then begin
            first := false;
            p.fp_reads <- p.fp_reads - 1;
            charge t
          end;
          read_done t p b.Buf.b_lblkno b)
    with
    | `Busy ->
      (* Out of clean buffers: try again on the next clock tick. *)
      count t.ctx "splice.retries";
      if not p.retry_armed then begin
        p.retry_armed <- true;
        ignore
          (Callout.timeout t.ctx.callout ~ticks:1 (fun () ->
               p.retry_armed <- false;
               let burst =
                 Flowctl.reads_to_issue t.config ~pending_reads:p.fp_reads
                   ~pending_writes:p.fp_writes
               in
               issue_reads t p (max 1 burst)))
      end
    | `Hit b ->
      p.next_read <- lblk + 1;
      p.fp_reads <- p.fp_reads + 1;
      p.peak_reads <- max p.peak_reads p.fp_reads;
      b.Buf.b_splice <- t.sd_id;
      b.Buf.b_lblkno <- lblk;
      count t.ctx "splice.read_hits";
      Hashtbl.replace p.issue_times lblk (Engine.now t.ctx.engine);
      charge t;
      p.fp_reads <- p.fp_reads - 1;
      read_done t p lblk b;
      issue_reads t p (n - 1)
    | `Started members ->
      let k = List.length members in
      List.iteri
        (fun i (b : Buf.t) ->
          b.Buf.b_splice <- t.sd_id;
          b.Buf.b_lblkno <- lblk + i;
          count t.ctx "splice.reads_issued";
          Hashtbl.replace p.issue_times (lblk + i) (Engine.now t.ctx.engine))
        members;
      p.next_read <- lblk + k;
      p.fp_reads <- p.fp_reads + 1;
      p.peak_reads <- max p.peak_reads p.fp_reads;
      if k > 1 then count t.ctx "splice.cluster_reads";
      tr t.ctx (fun () ->
          if k = 1 then
            Printf.sprintf "sd%d read lblk %d -> phys %d (pending r=%d w=%d)"
              t.sd_id lblk phys p.fp_reads p.fp_writes
          else
            Printf.sprintf
              "sd%d clustered read lblk %d..%d -> phys %d (pending r=%d w=%d)"
              t.sd_id lblk (lblk + k - 1) phys p.fp_reads p.fp_writes);
      issue_reads t p (n - 1)
  end

(* Read handler: invoked at read completion (interrupt context; the
   caller charges the handler activation and retires the pending-read
   slot — once per cluster). Hands the locked buffer to the write side
   through the head of the callout list (§5.3). *)
and[@kpath.intr] read_done t (p : file_pump) lblk (b : Buf.t) =
  match t.st with
  | Aborted _ ->
    Cache.brelse t.ctx.cache b;
    complete_if_done t p
  | Completed -> assert false
  | Running -> (
    match b.Buf.b_error with
    | Some (Blkdev.Io_error reason) ->
      Cache.brelse t.ctx.cache b;
      abort_pump t p reason
    | None -> (
      Hashtbl.replace p.inflight lblk b;
      tr t.ctx (fun () ->
          Printf.sprintf "sd%d read done lblk %d; write via callout head"
            t.sd_id lblk);
      match p.sink with
      | Endpoint.Dst_file _ when Cache.max_cluster t.ctx.cache > 1 ->
        (* Clustered write staging: batch the blocks completing in this
           event; one callout drains them, coalescing dst-contiguous
           runs into single writes. The pending-write slot is taken when
           a run is issued, one per write request. *)
        wq_insert p lblk b;
        if not p.wflush_armed then begin
          p.wflush_armed <- true;
          ignore
            (Callout.schedule_head t.ctx.callout (fun () -> flush_writes t p))
        end
      | _ ->
        p.fp_writes <- p.fp_writes + 1;
        p.peak_writes <- max p.peak_writes p.fp_writes;
        ignore
          (Callout.schedule_head t.ctx.callout (fun () ->
               write_start t p lblk b))))

(* Drain the clustered-write staging batch: runs that are consecutive
   both logically and on the destination device (split at physical
   discontinuities) become one multi-block write each. *)
and[@kpath.intr] flush_writes t (p : file_pump) =
  p.wflush_armed <- false;
  (* [wq] is kept sorted descending by [wq_insert]. *)
  let batch = List.rev p.wq in
  p.wq <- [];
  let dst_map = p.dst_map and mc = Cache.max_cluster t.ctx.cache in
  let rec go = function
    | [] -> ()
    | ((lblk, _) as hd) :: rest ->
      let rec grab acc k prev rest =
        match rest with
        | ((l, _) as e) :: tl
          when k < mc && l = prev + 1 && dst_map.(l) = dst_map.(prev) + 1 ->
          grab (e :: acc) (k + 1) l tl
        | _ -> (List.rev acc, rest)
      in
      let run, rest = grab [ hd ] 1 lblk rest in
      p.fp_writes <- p.fp_writes + 1;
      p.peak_writes <- max p.peak_writes p.fp_writes;
      (match run with
       | [ (l, b) ] -> write_start t p l b
       | _ -> write_cluster t p run);
      go rest
  in
  go batch

(* Clustered write: one header carries the members' data areas (the
   splice analog of cluster_wbuild), so the destination device writes
   them in place and raises a single completion interrupt for the run. *)
and[@kpath.intr] write_cluster t (p : file_pump) run =
  let lblk0 = fst (List.hd run) and k = List.length run in
  match (t.st, p.sink) with
  | Running, Endpoint.Dst_file { fs; _ } ->
    charge t;
    let hdr = Cache.getblk_hdr t.ctx.cache (Fs.dev fs) p.dst_map.(lblk0) in
    hdr.Buf.b_cluster <-
      Array.of_list (List.map (fun (_, (b : Buf.t)) -> b.Buf.b_data) run);
    hdr.Buf.b_lblkno <- lblk0;
    hdr.Buf.b_splice <- t.sd_id;
    List.iter (fun _ -> count t.ctx "splice.writes_issued") run;
    count t.ctx "splice.cluster_writes";
    tr t.ctx (fun () ->
        Printf.sprintf "sd%d clustered write lblk %d..%d -> phys %d" t.sd_id
          lblk0 (lblk0 + k - 1) p.dst_map.(lblk0));
    Cache.awrite_call t.ctx.cache hdr ~iodone:(fun hb ->
        write_done t p lblk0 k (Some hb))
  | _ -> (* aborted while staged: just release the run *)
    write_done t p lblk0 k None

(* Write side: runs from the callout list with a locked buffer of valid
   data (§5.4). *)
and[@kpath.intr] write_start t (p : file_pump) lblk (src_buf : Buf.t) =
  charge t;
  if t.st <> Running then write_done t p lblk 1 None
  else
    match p.sink with
    | Endpoint.Dst_file { fs; _ } ->
      let hdr = Cache.getblk_hdr t.ctx.cache (Fs.dev fs) p.dst_map.(lblk) in
      (* Share the data area with the read-side buffer: no copy. *)
      hdr.Buf.b_data <- src_buf.Buf.b_data;
      hdr.Buf.b_lblkno <- lblk;
      hdr.Buf.b_splice <- t.sd_id;
      count t.ctx "splice.writes_issued";
      Cache.awrite_call t.ctx.cache hdr ~iodone:(fun hb ->
          write_done t p lblk 1 (Some hb))
    | Endpoint.Dst_chardev cd ->
      count t.ctx "splice.writes_issued";
      Chardev.write_async cd src_buf.Buf.b_data 0 (bytes_for t lblk) (fun () ->
          write_done t p lblk 1 None)
    | Endpoint.Dst_socket { sock; dst } ->
      (* Datagram per block; the payload references the cache buffer's
         bytes via an mbuf-style loan (no CPU copy is charged). *)
      count t.ctx "splice.writes_issued";
      let payload = Bytes.sub src_buf.Buf.b_data 0 (bytes_for t lblk) in
      Udp.sendto sock ~dst payload;
      write_done t p lblk 1 None
    | Endpoint.Dst_tcp conn ->
      (* The stream applies back-pressure: completion fires when the
         block has been accepted into the send buffer, i.e. when the
         peer's window has admitted it. *)
      count t.ctx "splice.writes_issued";
      (try
         Tcp.send_async conn src_buf.Buf.b_data ~pos:0 ~len:(bytes_for t lblk)
           (fun () -> write_done t p lblk 1 None)
       with Invalid_argument msg ->
         p.fp_writes <- p.fp_writes - 1;
         Hashtbl.remove p.inflight lblk;
         Cache.brelse t.ctx.cache src_buf;
         abort_pump t p ("tcp sink: " ^ msg))

(* Write handler: invoked at the completion of one write request (§5.4)
   covering blocks [lblk .. lblk+k-1] — a single block, or a clustered
   write's run: free the source buffers, free the header just written,
   account every block, and apply flow control (§5.5) once. *)
and[@kpath.intr] write_done t (p : file_pump) lblk k hdr =
  charge t;
  p.fp_writes <- p.fp_writes - 1;
  let write_error =
    match hdr with
    | Some (hb : Buf.t) ->
      let e = hb.Buf.b_error in
      Cache.release_hdr t.ctx.cache hb;
      e
    | None -> None
  in
  for l = lblk to lblk + k - 1 do
    match Hashtbl.find_opt p.inflight l with
    | Some src_buf ->
      Hashtbl.remove p.inflight l;
      Cache.brelse t.ctx.cache src_buf
    | None -> ()
  done;
  match (t.st, write_error) with
  | Running, Some (Blkdev.Io_error reason) -> abort_pump t p reason
  | Running, None ->
    for l = lblk to lblk + k - 1 do
      t.moved <- t.moved + bytes_for t l;
      match Hashtbl.find_opt p.issue_times l with
      | Some issued ->
        Hashtbl.remove p.issue_times l;
        Histogram.add
          (Stats.histogram t.ctx.stats "splice.block_latency_us")
          (int_of_float
             (Time.to_us_f (Time.diff (Engine.now t.ctx.engine) issued)))
      | None -> ()
    done;
    tr t.ctx (fun () ->
        if k = 1 then
          Printf.sprintf "sd%d write done lblk %d (%d/%d bytes)" t.sd_id lblk
            t.moved t.total
        else
          Printf.sprintf "sd%d clustered write done lblk %d..%d (%d/%d bytes)"
            t.sd_id lblk (lblk + k - 1) t.moved t.total);
    if t.moved >= t.total then complete_if_done t p
    else begin
      let burst =
        Flowctl.reads_to_issue t.config ~pending_reads:p.fp_reads
          ~pending_writes:p.fp_writes
      in
      issue_reads t p burst;
      (* Belt and braces: if nothing is in flight and nothing was
         issued, restart one read so the transfer cannot stall. *)
      if drained p && p.next_read < p.nblocks then issue_reads t p 1
    end
  | (Aborted _ | Completed), _ -> complete_if_done t p

and[@kpath.intr] abort_pump t (p : file_pump) reason =
  if t.st = Running then begin
    t.st <- Aborted reason;
    complete_if_done t p
  end

let abort t ~reason =
  match t.st with
  | Running -> (
    match t.kind with
    | File_pump p -> abort_pump t p reason
    | Stream_pump p ->
      t.st <- Aborted reason;
      if p.sp_writes = 0 then finalize t
    | Dgram_pump _ | Frame_pump _ ->
      t.st <- Aborted reason;
      finalize t)
  | Completed | Aborted _ -> ()

let release t =
  if t.st <> Running then release_source t
  else invalid_arg "Splice.release: still running"

(* {1 Setup} *)

let make_desc ctx ~config ~total ~block_size kind =
  let sd_id = ctx.next_id in
  ctx.next_id <- sd_id + 1;
  count ctx "splice.started";
  tr ctx (fun () -> Printf.sprintf "sd%d started (%d bytes)" sd_id total);
  {
    sd_id;
    ctx;
    config;
    total;
    block_size;
    moved = 0;
    st = Running;
    callbacks = [];
    finalized = false;
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
      fp_reads = 0;
      fp_writes = 0;
      peak_reads = 0;
      peak_writes = 0;
      inflight = Hashtbl.create 16;
      issue_times = Hashtbl.create 16;
      retry_armed = false;
      wq = [];
      wflush_armed = false;
      ramp = 1;
    }
  in
  let t = make_desc ctx ~config ~total ~block_size (File_pump pump) in
  if total = 0 then begin
    t.st <- Completed;
    finalize t
  end
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
  let pump = { dg_src = src_sock; dg_sink; dg_drops = 0 } in
  let t = make_desc ctx ~config ~total ~block_size:0 (Dgram_pump pump) in
  if total = 0 then begin
    t.st <- Completed;
    finalize t
  end
  else
    Udp.set_upcall src_sock
      (Some
         (fun dg ->
           if t.st = Running then begin
             charge t;
             let len = Bytes.length dg.Udp.d_payload in
             (match pump.dg_sink with
              | `Socket (out, dst) -> Udp.sendto out ~dst dg.Udp.d_payload
              | `Chardev cd ->
                let n = Chardev.try_write cd dg.Udp.d_payload 0 len in
                if n < len then pump.dg_drops <- pump.dg_drops + 1);
             t.moved <- t.moved + len;
             count ctx "splice.dgrams_forwarded";
             if t.moved >= t.total then begin
               t.st <- Completed;
               finalize t
             end
           end));
  t

let start_frame_pump ctx ~config ~fb ~sock ~dst ~size =
  let total = if size = eof then max_int else size in
  if total < 0 then invalid_arg "Splice.start: negative size";
  let mtu = 8192 in
  let pump = { fr_src = fb; fr_sock = sock; fr_dst = dst; fr_mtu = mtu } in
  let t = make_desc ctx ~config ~total ~block_size:0 (Frame_pump pump) in
  let rec loop () =
    if t.st = Running && t.moved < t.total then
      Framebuffer.next_frame fb (fun ~seq:_ frame ->
          if t.st = Running then begin
            charge t;
            let len = Bytes.length frame in
            let rec send off =
              if off < len then begin
                let n = min pump.fr_mtu (len - off) in
                Udp.sendto pump.fr_sock ~dst:pump.fr_dst (Bytes.sub frame off n);
                send (off + n)
              end
            in
            send 0;
            t.moved <- t.moved + len;
            count ctx "splice.frames_forwarded";
            if t.moved >= t.total then begin
              t.st <- Completed;
              finalize t
            end
            else loop ()
          end)
    else if t.st = Running then begin
      t.st <- Completed;
      finalize t
    end
  in
  if total = 0 then begin
    t.st <- Completed;
    finalize t
  end
  else loop ();
  t

(* {1 Stream (recording) pump} *)

let[@kpath.intr] stream_flush_block t (p : stream_pump) =
  let lblk = p.sp_next in
  let dst_dev = Fs.dev p.sp_fs in
  let hdr = Cache.getblk_hdr t.ctx.cache dst_dev p.sp_map.(lblk) in
  hdr.Buf.b_data <- p.staged;
  hdr.Buf.b_lblkno <- lblk;
  hdr.Buf.b_splice <- t.sd_id;
  let written = p.staged_len in
  p.sp_next <- lblk + 1;
  p.staged <- Bytes.create t.block_size;
  p.staged_len <- 0;
  p.sp_writes <- p.sp_writes + 1;
  count t.ctx "splice.writes_issued";
  Cache.awrite_call t.ctx.cache hdr ~iodone:(fun hb ->
      charge t;
      p.sp_writes <- p.sp_writes - 1;
      let write_error = hb.Buf.b_error in
      Cache.release_hdr t.ctx.cache hb;
      match (t.st, write_error) with
      | Running, Some (Blkdev.Io_error reason) ->
        t.st <- Aborted reason;
        if p.sp_writes = 0 then finalize t
      | Running, None ->
        t.moved <- t.moved + written;
        if t.moved >= t.total then begin
          t.st <- Completed;
          finalize t
        end
      | Aborted _, _ -> if p.sp_writes = 0 then finalize t
      | Completed, _ -> ())

(* Interrupt-context chunk arrival from the device. *)
let[@kpath.intr] stream_on_chunk t (p : stream_pump) data =
  if t.st = Running then begin
    charge t;
    let len = Bytes.length data in
    let rec consume off =
      if off < len && t.st = Running && p.sp_next < Array.length p.sp_map
      then begin
        let block_target =
          min t.block_size (t.total - (p.sp_next * t.block_size))
        in
        let want = min (block_target - p.staged_len) (len - off) in
        Bytes.blit data off p.staged p.staged_len want;
        p.staged_len <- p.staged_len + want;
        if p.staged_len >= block_target then begin
          if p.sp_writes >= t.config.Flowctl.write_hi then begin
            (* Overrun: the sink cannot keep up; drop this block's worth
               of samples and re-stage the slot. *)
            p.sp_overruns <- p.sp_overruns + p.staged_len;
            count t.ctx "splice.overruns";
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
        sp_fs = fs;
        sp_map;
        sp_next = 0;
        staged = Bytes.create block_size;
        staged_len = 0;
        sp_writes = 0;
        sp_overruns = 0;
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
