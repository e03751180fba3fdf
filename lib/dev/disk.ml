open Kpath_sim

type geometry = {
  avg_seek : Time.span;
  avg_rot_latency : Time.span;
  media_rate : float;
  bus_rate : float;
  readahead_bytes : int;
  readahead_segments : int;
}

(* Figures from DEC's RZ-series documentation as quoted in the paper's
   §6.1. Bus rate is a conservative synchronous-SCSI figure for the
   DECstation's 5394 controller. *)
let rz56 =
  {
    avg_seek = Time.ms 16;
    avg_rot_latency = Time.of_us_f 8300.0;
    media_rate = 1.66e6;
    bus_rate = 4.0e6;
    readahead_bytes = 64 * 1024;
    readahead_segments = 1;
  }

let rz58 =
  {
    avg_seek = Time.of_us_f 12500.0;
    avg_rot_latency = Time.of_us_f 5600.0;
    media_rate = 2.1e6;
    bus_rate = 4.0e6;
    readahead_bytes = 256 * 1024;
    readahead_segments = 4;
  }

(* One on-board cache segment: a sequential read stream the drive is
   following. [next_blk] is the block the host is expected to ask for
   next; [media_clock] is when the media head will have finished reading
   that block under the streaming pipeline. *)
type segment = {
  mutable seg_next : int;
  mutable seg_media_clock : Time.t;
  mutable seg_stamp : int; (* LRU *)
}

type queue_discipline = Fifo | Elevator

let k_reads = Stats.key "disk.reads"
let k_writes = Stats.key "disk.writes"

type t = {
  geometry : geometry;
  block_size : int;
  nblocks : int;
  intr_service : Time.span;
  discipline : queue_discipline;
  engine : Engine.t;
  intr : Blkdev.intr;
  segments : segment array;
  mutable head_pos : int; (* block following the last media access *)
  mutable stamp : int;
  queue : Blkdev.req Queue.t; (* pending, arrival order *)
  mutable in_service : bool;
  store : Blkdev.store;
  mutable serviced : int;
  mutable cache_hits : int;
  mutable seeks : int;
  stats : Stats.t;
  mutable dev : Blkdev.t option;
}

let geometry t = t.geometry

let busy t = t.in_service || not (Queue.is_empty t.queue)

let serviced t = t.serviced

let cache_hits t = t.cache_hits

let seeks t = t.seeks

let ra_blocks t =
  max 1 (t.geometry.readahead_bytes / t.geometry.readahead_segments / t.block_size)

(* Per-segment prefetch window expressed as streaming time. *)
let ra_time t =
  Time.span_of_bytes ~bytes_per_sec:t.geometry.media_rate
    (ra_blocks t * t.block_size)

let media_time t count = Time.span_of_bytes ~bytes_per_sec:t.geometry.media_rate count

let bus_time t count = Time.span_of_bytes ~bytes_per_sec:t.geometry.bus_rate count

(* Seek-time curve: roughly linear in distance, normalised so that the
   published average is reached at a third of the stroke (the classical
   random-seek average). *)
let seek_time t ~from ~to_ =
  let dist = abs (to_ - from) in
  let frac = float_of_int dist /. float_of_int (max 1 t.nblocks) in
  let factor = 0.3 +. (2.1 *. frac) in
  Time.of_us_f (Time.to_us_f t.geometry.avg_seek *. factor)

(* [find_segment], [lru_segment] and [invalidate_around] scan every
   on-board cache segment linearly on every request. Real RZ-series
   drives carry 1–4 segments ([rz56]/[rz58]), so the scans are constant
   in practice; [create] rejects geometries with more than
   [max_segments] so a future many-segment geometry cannot silently turn
   these into a hot-path O(n) cost without someone noticing (there is an
   invariant test pinning both facts in test_disk.ml). *)
let max_segments = 16

let find_segment t blkno =
  let found = ref None in
  Array.iter (fun seg -> if seg.seg_next = blkno then found := Some seg) t.segments;
  !found

let lru_segment t =
  Array.fold_left
    (fun acc seg -> if seg.seg_stamp < acc.seg_stamp then seg else acc)
    t.segments.(0) t.segments

let touch t seg =
  t.stamp <- t.stamp + 1;
  seg.seg_stamp <- t.stamp

(* Drop cache segments plausibly covering the written range (write-through
   coherency). *)
let invalidate_around t blkno nblk =
  let ra = ra_blocks t in
  Array.iter
    (fun seg ->
      if abs (seg.seg_next - blkno) <= ra + nblk then begin
        seg.seg_next <- -1;
        seg.seg_media_clock <- Time.zero
      end)
    t.segments

(* Completion instant for a request issued at [now], updating head and
   segment state. *)
let completion_time t (req : Blkdev.req) now =
  let nblk = Array.length req.r_bufs in
  let count = nblk * t.block_size in
  let mt = media_time t count in
  if req.r_write then begin
    invalidate_around t req.r_blkno nblk;
    let done_at =
      if req.r_blkno = t.head_pos then Time.add now mt
      else begin
        t.seeks <- t.seeks + 1;
        Time.add now
          (Time.add
             (Time.add (seek_time t ~from:t.head_pos ~to_:req.r_blkno)
                t.geometry.avg_rot_latency)
             mt)
      end
    in
    t.head_pos <- req.r_blkno + nblk;
    done_at
  end
  else
    match find_segment t req.r_blkno with
    | Some seg ->
      (* Read-ahead cache hit: bus transfer, bounded by the media
         pipeline. The drive cannot have prefetched more than one
         segment window ahead of the host. *)
      t.cache_hits <- t.cache_hits + 1;
      let stall_floor =
        let w = ra_time t in
        if Time.(w > now) then Time.zero else Time.sub now w
      in
      seg.seg_media_clock <- Time.max seg.seg_media_clock stall_floor;
      seg.seg_media_clock <- Time.add seg.seg_media_clock mt;
      seg.seg_next <- req.r_blkno + nblk;
      touch t seg;
      t.head_pos <- req.r_blkno + nblk;
      Time.add (Time.max now seg.seg_media_clock) (bus_time t count)
    | None ->
      let start_cost =
        if req.r_blkno = t.head_pos then Time.zero
        else begin
          t.seeks <- t.seeks + 1;
          Time.add
            (seek_time t ~from:t.head_pos ~to_:req.r_blkno)
            t.geometry.avg_rot_latency
        end
      in
      let done_at = Time.add now (Time.add start_cost mt) in
      let seg = lru_segment t in
      seg.seg_next <- req.r_blkno + nblk;
      seg.seg_media_clock <- done_at;
      touch t seg;
      t.head_pos <- req.r_blkno + nblk;
      done_at

(* Pick the next request per the queue discipline. *)
let pop_next t =
  if t.discipline = Fifo || Queue.length t.queue <= 1 then
    Queue.take_opt t.queue
  else begin
    (* C-LOOK: the lowest block at or above the head, else the lowest
       overall (wrap); equal blocks go in arrival order, as the fold
       keeps the first request with the least key. A block below the
       head keys past every block at or above it. *)
    let key (r : Blkdev.req) =
      if r.r_blkno >= t.head_pos then r.r_blkno else t.nblocks + r.r_blkno
    in
    let best =
      Queue.fold
        (fun b r -> if key r < key b then r else b)
        (Queue.peek t.queue) t.queue
    in
    (* Rotate the queue once, leaving the rest in arrival order. *)
    for _ = 1 to Queue.length t.queue do
      let r = Queue.take t.queue in
      if r != best then Queue.add r t.queue
    done;
    Some best
  end

let[@kpath.intr] rec service_next t =
  if not t.in_service then begin
    match pop_next t with
    | None -> ()
    | Some req ->
    t.in_service <- true;
    let done_at = completion_time t req (Engine.now t.engine) in
    ignore
      (Engine.schedule t.engine ~at:done_at (fun () ->
           let error = Blkdev.transfer t.store req in
           t.serviced <- t.serviced + 1;
           t.in_service <- false;
           t.intr ~service:t.intr_service (fun () -> req.r_done error);
           service_next t))
  end

let create ~name ~geometry ~block_size ~nblocks ~intr_service
    ?(queue = Fifo) ~engine ~intr () =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Disk.create: bad geometry";
  if geometry.readahead_segments > max_segments then
    invalid_arg
      (Printf.sprintf
         "Disk.create: %d read-ahead segments > %d (find_segment and \
          invalidate_around scan segments linearly on every request)"
         geometry.readahead_segments max_segments);
  let t =
    {
      geometry;
      block_size;
      nblocks;
      intr_service;
      discipline = queue;
      engine;
      intr;
      segments =
        Array.init (max 1 geometry.readahead_segments) (fun _ ->
            { seg_next = -1; seg_media_clock = Time.zero; seg_stamp = 0 });
      head_pos = 0;
      stamp = 0;
      queue = Queue.create ();
      in_service = false;
      store = Blkdev.store ~name ~block_size ~nblocks;
      serviced = 0;
      cache_hits = 0;
      seeks = 0;
      stats = Stats.create ();
      dev = None;
    }
  in
  let rec dev =
    {
      Blkdev.dv_name = name;
      dv_id = Blkdev.next_id ();
      dv_block_size = block_size;
      dv_nblocks = nblocks;
      dv_strategy =
        (fun req ->
          Blkdev.check_req dev req;
          Stats.incr (Stats.at t.stats (if req.r_write then k_writes else k_reads));
          Queue.add req t.queue;
          service_next t);
      dv_stats = t.stats;
    }
  in
  t.dev <- Some dev;
  t

let blkdev t = Option.get t.dev

let read_block_direct t blkno = Blkdev.read_block_direct t.store blkno

let write_block_direct t blkno data = Blkdev.write_block_direct t.store blkno data

let inject_error t ~blkno = Blkdev.inject_error t.store ~blkno
