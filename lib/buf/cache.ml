open Kpath_sim
open Kpath_dev
open Kpath_proc

(* Which intrusive LRU list (if any) a cache-owned buffer is on. *)
let l_none = 0

let l_free = 1
let l_dirty = 2

let k_hits = Stats.key "cache.hits"
let k_misses = Stats.key "cache.misses"
let k_sleeps = Stats.key "cache.sleeps"
let k_dev_reads = Stats.key "cache.dev_reads"
let k_dev_writes = Stats.key "cache.dev_writes"
let k_io_errors = Stats.key "cache.io_errors"
let k_pins = Stats.key "cache.pins"
let k_unpins = Stats.key "cache.unpins"
let k_delwri_flushes = Stats.key "cache.delwri_flushes"
let k_readaheads = Stats.key "cache.readaheads"
let k_bwrites = Stats.key "cache.bwrites"
let k_bawrites = Stats.key "cache.bawrites"
let k_bdwrites = Stats.key "cache.bdwrites"
let k_awrite_calls = Stats.key "cache.awrite_calls"
let k_fsync_writes = Stats.key "cache.fsync_writes"
let k_cluster_reads = Stats.key "cache.cluster_reads"
let k_cluster_writes = Stats.key "cache.cluster_writes"
let k_cluster_breakups = Stats.key "cache.cluster_breakups"
let k_areas_made = Stats.key "cache.areas_made"

type t = {
  block_size : int;
  n : int;
  max_cluster : int;
  bufs : Buf.t array;
  (* bufhash, the 4.2BSD [incore] index: a power-of-two array of bucket
     heads, each a chain of the hashed buffers whose (device, block)
     falls in it, threaded through [hnext] by buffer id; -1 terminates. *)
  heads : int array;
  hnext : int array;
  mutable free_waiters : (unit -> unit) list;
  mutable stamp : int;
  mutable next_hdr_id : int;
  mutable hdr_pool : Buf.t list;
  mutable hdrs_out : int;
  (* Private block areas nothing else references: the areas device
     reads displace from the pool's buffers, and any area a caller of
     [return_area] is done with. [own] and [spare_area] take from the
     head. *)
  mutable areas : bytes list;
  mutable nareas : int;
  (* O(1) LRU, BSD free-list style: every non-busy cache-owned buffer is
     on exactly one doubly-linked list in release order (head = least
     recently used) — clean buffers on the free list, delayed writes on
     the dirty list. Links are indices into [bufs]; -1 terminates. Both
     lists stay sorted by (b_stamp, b_id), matching the order the old
     full-array victim scans implied. *)
  fnext : int array;
  fprev : int array;
  onlist : int array;
  mutable free_head : int;
  mutable free_tail : int;
  mutable dirty_head : int;
  mutable dirty_tail : int;
  stats : Stats.t;
}

let block_size t = t.block_size

let max_cluster t = t.max_cluster

let stats t = t.stats

let count k t = Stats.incr (Stats.at t.stats k)

let touch t (b : Buf.t) =
  t.stamp <- t.stamp + 1;
  b.b_stamp <- t.stamp

(* {2 Free/dirty list plumbing} *)

let unlink t (b : Buf.t) =
  let i = b.b_id in
  let w = t.onlist.(i) in
  if w <> l_none then begin
    let p = t.fprev.(i) and nx = t.fnext.(i) in
    (if p >= 0 then t.fnext.(p) <- nx
     else if w = l_free then t.free_head <- nx
     else t.dirty_head <- nx);
    (if nx >= 0 then t.fprev.(nx) <- p
     else if w = l_free then t.free_tail <- p
     else t.dirty_tail <- p);
    t.onlist.(i) <- l_none;
    t.fprev.(i) <- -1;
    t.fnext.(i) <- -1
  end

let append t which (b : Buf.t) =
  let i = b.b_id in
  let tail = if which = l_free then t.free_tail else t.dirty_tail in
  t.fprev.(i) <- tail;
  t.fnext.(i) <- -1;
  (if tail >= 0 then t.fnext.(tail) <- i
   else if which = l_free then t.free_head <- i
   else t.dirty_head <- i);
  (if which = l_free then t.free_tail <- i else t.dirty_tail <- i);
  t.onlist.(i) <- which

(* Rebuild both lists from the flags, in (stamp, id) order. Only needed
   after [invalidate_dev] rewrites flags wholesale: cleaned buffers keep
   their stamps, so their LRU position must be recomputed rather than
   appended at the tail. Rare (cold-cache resets), so O(n log n) is fine. *)
let rebuild_lists t =
  t.free_head <- -1;
  t.free_tail <- -1;
  t.dirty_head <- -1;
  t.dirty_tail <- -1;
  Array.iteri
    (fun i _ ->
      t.onlist.(i) <- l_none;
      t.fprev.(i) <- -1;
      t.fnext.(i) <- -1)
    t.fnext;
  let nonbusy =
    Array.to_list t.bufs
    |> List.filter (fun (b : Buf.t) -> not (Buf.has b Buf.b_busy))
    |> List.sort (fun (a : Buf.t) (b : Buf.t) ->
           compare (a.b_stamp, a.b_id) (b.b_stamp, b.b_id))
  in
  List.iter
    (fun (b : Buf.t) ->
      append t (if Buf.has b Buf.b_delwri then l_dirty else l_free) b)
    nonbusy

(* A non-busy cache-owned buffer becomes busy: off its list. *)
let take t (b : Buf.t) =
  unlink t b;
  Buf.set b Buf.b_busy

let create ~block_size ~nbufs ?(max_cluster = 1) () =
  if block_size <= 0 || nbufs <= 0 then invalid_arg "Cache.create: bad sizes";
  if max_cluster <= 0 then invalid_arg "Cache.create: max_cluster <= 0";
  let t =
    {
      block_size;
      n = nbufs;
      max_cluster;
      bufs = Array.init nbufs (fun i -> Buf.make ~id:i ~data_size:block_size);
      heads =
        (let rec pow2 k = if k >= nbufs then k else pow2 (2 * k) in
         Array.make (pow2 1) (-1));
      hnext = Array.make nbufs (-1);
      free_waiters = [];
      stamp = 0;
      next_hdr_id = nbufs;
      hdr_pool = [];
      hdrs_out = 0;
      areas = [];
      nareas = 0;
      fnext = Array.make nbufs (-1);
      fprev = Array.make nbufs (-1);
      onlist = Array.make nbufs l_none;
      free_head = -1;
      free_tail = -1;
      dirty_head = -1;
      dirty_tail = -1;
      stats = Stats.create ();
    }
  in
  (* All buffers start clean and free, in id order (stamps all zero). *)
  Array.iter (fun b -> append t l_free b) t.bufs;
  t

(* {2 bufhash} *)

(* BSD's BUFHASH: device plus block number, masked. *)
let bucket t dev_id blkno = (dev_id + blkno) land (Array.length t.heads - 1)

let dev_id (b : Buf.t) =
  match b.b_dev with Some d -> d.Blkdev.dv_id | None -> -1

(* What a lookup returns when the block is not in the cache. Its flags
   stay 0, so it tests neither busy, valid nor dirty. *)
let nobuf = Buf.make ~id:(-1) ~data_size:0

let rec chain t d blkno i =
  if i < 0 then nobuf
  else
    let b = t.bufs.(i) in
    if b.Buf.b_blkno = blkno && dev_id b = d then b
    else chain t d blkno t.hnext.(i)

(* [incore]: the buffer holding (dev, blkno), or [nobuf]. *)
let incore t (dev : Blkdev.t) blkno =
  let d = dev.Blkdev.dv_id in
  chain t d blkno t.heads.(bucket t d blkno)

let unhash t (b : Buf.t) =
  if b.b_in_hash then begin
    let h = bucket t (dev_id b) b.b_blkno and i = b.b_id in
    if t.heads.(h) = i then t.heads.(h) <- t.hnext.(i)
    else begin
      let p = ref t.heads.(h) in
      while t.hnext.(!p) <> i do
        p := t.hnext.(!p)
      done;
      t.hnext.(!p) <- t.hnext.(i)
    end;
    t.hnext.(i) <- -1;
    b.b_in_hash <- false
  end

let rehash t (b : Buf.t) (dev : Blkdev.t) blkno =
  unhash t b;
  b.b_dev <- Some dev;
  b.b_blkno <- blkno;
  let h = bucket t dev.Blkdev.dv_id blkno in
  t.hnext.(b.b_id) <- t.heads.(h);
  t.heads.(h) <- b.b_id;
  b.b_in_hash <- true

let wake_list l = List.iter (fun w -> w ()) (List.rev l)

let wake_free t =
  let ws = t.free_waiters in
  t.free_waiters <- [];
  wake_list ws

(* {2 Block areas}

   A pool buffer's area is private (only the buffer references it, and
   only its holder writes it) or sealed (shared by reference, never
   written again). A write seals the areas it hands the device, and a
   read leaves the buffer holding the store's own sealed area; the
   private area it displaces joins the free list, where [own] finds a
   replacement for a sealed area before anyone writes the buffer. *)

let spare_area t =
  match t.areas with
  | a :: _ -> a
  | [] ->
    let a = Bytes.create t.block_size in
    count k_areas_made t;
    t.areas <- [ a ];
    t.nareas <- 1;
    a

let claim_area t =
  match t.areas with
  | _ :: rest ->
    t.areas <- rest;
    t.nareas <- t.nareas - 1
  | [] -> invalid_arg "Cache.claim_area: no spare area"

let return_area t a =
  if Bytes.length a <> t.block_size then
    invalid_arg "Cache.return_area: not a block area";
  t.areas <- a :: t.areas;
  t.nareas <- t.nareas + 1

let spare_areas t = t.nareas

let pool_buf t (b : Buf.t) = b.b_id >= 0 && b.b_id < t.n

let[@kpath.intr] own t (b : Buf.t) ~keep =
  if not (Buf.has b Buf.b_busy && pool_buf t b) then
    invalid_arg "Cache.own: not a busy pool buffer";
  if b.b_sealed then begin
    let a = spare_area t in
    claim_area t;
    if keep then Bytes.blit b.b_data 0 a 0 t.block_size;
    b.b_data <- a;
    b.b_sealed <- false
  end

(* A device read delivered [a], the store's sealed area, for pool
   buffer [b]: adopt it, and keep the private area it displaces. *)
let[@kpath.intr] adopt t (b : Buf.t) a =
  if a != b.b_data then begin
    if not b.b_sealed then return_area t b.b_data;
    b.b_data <- a
  end;
  b.b_sealed <- true

(* Start the device operation described by the buffer. Completion is
   delivered through [biodone]. A write hands the device its areas by
   reference: a pool buffer's area is sealed here, and a bare header's
   owner sealed the areas it carries. *)
let[@kpath.intr] rec start_io t (b : Buf.t) ~write =
  let dev = match b.b_dev with Some d -> d | None -> invalid_arg "start_io" in
  count (if write then k_dev_writes else k_dev_reads) t;
  if write then Buf.clear b Buf.b_read else Buf.set b Buf.b_read;
  Buf.clear b (Buf.b_done lor Buf.b_error_flag);
  b.b_error <- None;
  let single = Array.length b.b_cluster = 0 in
  let pool = pool_buf t b in
  if write && pool then b.b_sealed <- true;
  let bufs = if single then [| b.b_data |] else b.b_cluster in
  dev.Blkdev.dv_strategy
    {
      Blkdev.r_blkno = b.b_blkno;
      r_bufs = bufs;
      r_write = write;
      r_done =
        (fun err ->
          if (not write) && pool && Option.is_none err then adopt t b bufs.(0);
          biodone_ref t b err);
    }

and[@kpath.intr] brelse t (b : Buf.t) =
  if not (Buf.has b Buf.b_busy) then invalid_arg "brelse: buffer not busy";
  if b.b_refs > 0 then invalid_arg "brelse: buffer still pinned";
  let ws = b.b_waiters in
  b.b_waiters <- [];
  if Buf.has b Buf.b_inval || Buf.has b Buf.b_error_flag then begin
    unhash t b;
    Buf.clear b Buf.b_delwri;
    b.b_flags <- 0;
    b.b_error <- None;
    b.b_lblkno <- -1
  end
  else
    Buf.clear b (Buf.b_busy lor Buf.b_async lor Buf.b_call lor Buf.b_read);
  b.b_iodone <- None;
  touch t b;
  if b.b_id < t.n then
    append t (if Buf.has b Buf.b_delwri then l_dirty else l_free) b;
  wake_list ws;
  wake_free t

and[@kpath.intr] biodone_ref t (b : Buf.t) err =
  (match err with
   | Some e ->
     Buf.set b Buf.b_error_flag;
     b.b_error <- Some e;
     count k_io_errors t
   | None -> ());
  Buf.set b Buf.b_done;
  if Buf.has b Buf.b_call then begin
    Buf.clear b Buf.b_call;
    match b.b_iodone with
    | Some f ->
      b.b_iodone <- None;
      f b
    | None -> ()
  end
  else if Buf.has b Buf.b_async then brelse t b
  else begin
    let ws = b.b_waiters in
    b.b_waiters <- [];
    wake_list ws
  end

let biodone = biodone_ref

(* Reference-counted aliasing: a busy buffer whose data area is shared
   by several downstream writers (splice-graph fan-out) is held by the
   first and pinned once by each further one. A writer done with it
   drops a pin while any is left; the last one releases the buffer.
   The count only defers the release — ownership rules are otherwise
   unchanged, and [brelse] refuses pinned buffers so a release can
   never happen twice. *)
let[@kpath.intr] pin t (b : Buf.t) =
  if not (Buf.has b Buf.b_busy) then invalid_arg "Cache.pin: buffer not busy";
  b.b_refs <- b.b_refs + 1;
  count k_pins t

let[@kpath.intr] unpin t (b : Buf.t) =
  if b.b_refs <= 0 then invalid_arg "Cache.unpin: buffer not pinned";
  b.b_refs <- b.b_refs - 1;
  count k_unpins t

(* Pick a reusable buffer, classic 4.2BSD free-list style: walk the
   non-busy buffers from least to most recently used; delayed-write
   buffers reaching the head are pushed to their device asynchronously
   and skipped, and the first clean one is the victim. This is what
   keeps a copy's destination disk continuously fed while its source
   disk streams reads. The victim is for block [blkno] of [dev]. *)
let victim t (dev : Blkdev.t) blkno =
  (* The least-recently-used clean buffer is the free-list head; every
     delayed write older than it (the dirty-list prefix — both lists are
     stamp-ordered) is pushed to its device asynchronously. The pushouts
     are issued in buffer-id order, matching the array scan this
     replaces, so device queues see the identical request order. *)
  let clean = if t.free_head >= 0 then Some t.bufs.(t.free_head) else None in
  let horizon =
    match clean with Some (c : Buf.t) -> c.b_stamp | None -> max_int
  in
  let to_flush = ref [] in
  let i = ref t.dirty_head in
  while !i >= 0 && t.bufs.(!i).Buf.b_stamp < horizon do
    to_flush := t.bufs.(!i) :: !to_flush;
    i := t.fnext.(!i)
  done;
  let flushed = !to_flush <> [] in
  List.iter
    (fun (b : Buf.t) ->
      take t b;
      Buf.clear b Buf.b_delwri;
      Buf.set b Buf.b_async;
      count k_delwri_flushes t;
      start_io t b ~write:true)
    (List.sort
       (fun (a : Buf.t) (b : Buf.t) -> compare a.b_id b.b_id)
       !to_flush);
  (* A pushout can suspend a process-context caller (the RAM disk
     charges its bcopy to the caller) while other code runs, so after
     one the victim must still be clean and free, and the wanted block
     still uncached. *)
  match clean with
  | Some b
    when (not flushed)
         || (not (Buf.has b Buf.b_busy))
            && (not (Buf.has b Buf.b_delwri))
            && incore t dev blkno == nobuf ->
    `Clean b
  | Some _ | None -> if flushed then `Flushing else `None

let reassign t (b : Buf.t) dev blkno =
  take t b;
  rehash t b dev blkno;
  b.b_flags <- Buf.b_busy;
  b.b_refs <- 0;
  b.b_error <- None;
  b.b_iodone <- None;
  b.b_lblkno <- -1;
  touch t b

let[@kpath.blocks] rec getblk t (dev : Blkdev.t) blkno =
  match incore t dev blkno with
  | b when Buf.has b Buf.b_busy ->
    count k_sleeps t;
    Process.block "getblk" (fun w -> b.b_waiters <- w :: b.b_waiters);
    getblk t dev blkno
  | b when b != nobuf ->
    take t b;
    touch t b;
    b
  | _ -> (
    match victim t dev blkno with
    | `Clean b ->
      reassign t b dev blkno;
      b
    | `Flushing ->
      (* Flushes were started; they may already have completed (the
         RAM disk copies synchronously in our context), so re-scan
         rather than sleeping past the wakeup. *)
      getblk t dev blkno
    | `None ->
      count k_sleeps t;
      Process.block "getblk-free" (fun w ->
          t.free_waiters <- w :: t.free_waiters);
      getblk t dev blkno)

let[@kpath.intr] getblk_nb t (dev : Blkdev.t) blkno =
  match incore t dev blkno with
  | b when Buf.has b Buf.b_busy -> None
  | b when b != nobuf ->
    take t b;
    touch t b;
    Some b
  | _ -> (
    match victim t dev blkno with
    | `Clean b ->
      reassign t b dev blkno;
      Some b
    | `Flushing | `None -> None)

let[@kpath.blocks] rec biowait (b : Buf.t) =
  if Buf.has b Buf.b_done then
    match b.b_error with Some e -> Error e | None -> Ok ()
  else begin
    Process.block "biowait" (fun w -> b.b_waiters <- w :: b.b_waiters);
    biowait b
  end

let[@kpath.blocks] bread t dev blkno =
  let b = getblk t dev blkno in
  if Buf.valid b then begin
    count k_hits t;
    b
  end
  else begin
    count k_misses t;
    start_io t b ~write:false;
    ignore (biowait b);
    b
  end

let[@kpath.blocks] breada t dev blkno ~ahead =
  (* Fire the read-ahead first so the device can pipeline it behind the
     demand read. *)
  (if ahead >= 0
   && ahead < dev.Blkdev.dv_nblocks
   && incore t dev ahead == nobuf
   then
     match getblk_nb t dev ahead with
     | Some ab ->
       count k_readaheads t;
       Buf.set ab Buf.b_async;
       start_io t ab ~write:false
     | None -> ());
  bread t dev blkno

let[@kpath.blocks] bwrite t (b : Buf.t) =
  if not (Buf.has b Buf.b_busy) then invalid_arg "bwrite: buffer not busy";
  count k_bwrites t;
  Buf.clear b Buf.b_delwri;
  start_io t b ~write:true;
  ignore (biowait b);
  brelse t b

let bawrite t (b : Buf.t) =
  if not (Buf.has b Buf.b_busy) then invalid_arg "bawrite: buffer not busy";
  count k_bawrites t;
  Buf.clear b Buf.b_delwri;
  Buf.set b Buf.b_async;
  start_io t b ~write:true

let bdwrite t (b : Buf.t) =
  if not (Buf.has b Buf.b_busy) then invalid_arg "bdwrite: buffer not busy";
  count k_bdwrites t;
  Buf.set b Buf.b_delwri;
  Buf.set b Buf.b_done;
  brelse t b

let cached t dev blkno =
  let b = incore t dev blkno in
  Buf.has b Buf.b_done || Buf.has b Buf.b_delwri

(* fsync back end, pipelined: start every delayed write asynchronously,
   then wait for each block to come to rest (the device services the
   whole batch back to back instead of one biowait round trip per
   block). *)
let flush_start t dev blkno =
  match incore t dev blkno with
  | b when (not (Buf.has b Buf.b_busy)) && Buf.has b Buf.b_delwri ->
    take t b;
    Buf.clear b Buf.b_delwri;
    Buf.set b Buf.b_async;
    count k_fsync_writes t;
    start_io t b ~write:true
  | _ -> ()

let[@kpath.blocks] rec flush_await t dev blkno =
  match incore t dev blkno with
  | b when Buf.has b Buf.b_busy ->
    Process.block "fsync" (fun w -> b.b_waiters <- w :: b.b_waiters);
    flush_await t dev blkno
  | b when Buf.has b Buf.b_delwri ->
    (* Re-dirtied while we waited: write it synchronously. *)
    take t b;
    bwrite t b;
    flush_await t dev blkno
  | _ -> ()

let invalidate_dev t (dev : Blkdev.t) =
  let on_dev (b : Buf.t) = dev_id b = dev.Blkdev.dv_id in
  (* Refuse before touching anything, so a refusal leaves the cache as
     it was. *)
  if Array.exists (fun b -> on_dev b && Buf.has b Buf.b_busy) t.bufs then
    invalid_arg "Cache.invalidate_dev: device has busy buffers";
  Array.iter
    (fun (b : Buf.t) ->
      if on_dev b then begin
        unhash t b;
        Buf.clear b Buf.b_delwri;
        b.b_flags <- 0;
        b.b_error <- None;
        b.b_dev <- None;
        b.b_blkno <- -1
      end)
    t.bufs;
  (* Cleaned buffers kept their stamps; recompute list positions. *)
  rebuild_lists t

let[@kpath.intr] bread_nb t dev blkno ~iodone =
  match getblk_nb t dev blkno with
  | None -> `Busy
  | Some b ->
    if Buf.valid b then begin
      count k_hits t;
      `Hit b
    end
    else begin
      count k_misses t;
      Buf.set b Buf.b_call;
      b.b_iodone <- Some iodone;
      start_io t b ~write:false;
      `Started b
    end

let[@kpath.intr] awrite_call t (b : Buf.t) ~iodone =
  if not (Buf.has b Buf.b_busy) then invalid_arg "awrite_call: buffer not busy";
  count k_awrite_calls t;
  Buf.set b Buf.b_call;
  b.b_iodone <- Some iodone;
  Buf.clear b Buf.b_delwri;
  start_io t b ~write:true

let[@kpath.blocks] rec invalidate_cached t dev blkno =
  match incore t dev blkno with
  | b when b == nobuf -> ()
  | b when Buf.has b Buf.b_busy ->
    Process.block "inval" (fun w -> b.b_waiters <- w :: b.b_waiters);
    invalidate_cached t dev blkno
  | b ->
    take t b;
    Buf.set b Buf.b_inval;
    Buf.clear b Buf.b_delwri;
    brelse t b

let[@kpath.intr] getblk_hdr t (dev : Blkdev.t) blkno =
  let b =
    match t.hdr_pool with
    | b :: rest ->
      t.hdr_pool <- rest;
      b
    | [] ->
      let b = Buf.make ~id:t.next_hdr_id ~data_size:0 in
      t.next_hdr_id <- t.next_hdr_id + 1;
      b
  in
  t.hdrs_out <- t.hdrs_out + 1;
  b.b_dev <- Some dev;
  b.b_blkno <- blkno;
  b.b_flags <- Buf.b_busy;
  b.b_error <- None;
  b.b_iodone <- None;
  b.b_lblkno <- -1;
  b

let[@kpath.intr] release_hdr t (b : Buf.t) =
  if b.b_in_hash then invalid_arg "Cache.release_hdr: cache-owned buffer";
  t.hdrs_out <- t.hdrs_out - 1;
  b.b_flags <- 0;
  b.b_data <- Bytes.empty;
  b.b_cluster <- [||];
  b.b_dev <- None;
  b.b_iodone <- None;
  b.b_waiters <- [];
  t.hdr_pool <- b :: t.hdr_pool

(* {2 Cluster I/O}

   Classic 4.3BSD cluster read/write: physically contiguous blocks ride
   one multi-block strategy call, so the device raises one completion
   interrupt per cluster instead of one per block. The transfer goes
   through a {!getblk_hdr} header carrying the member buffers' own data
   areas ([b_cluster]), the way BSD's [cluster_rbuild]/[cluster_wbuild]
   remap the member pages into one header: a write hands the device the
   members' areas, sealed, and a read's completion leaves the store's
   areas in the header's slots for each member to adopt, so nothing is
   staged or copied. On completion the header fans out to each member
   buffer via [biodone].
   An I/O error breaks the cluster up: each member is re-issued as a
   single-block request, so the injected error lands on exactly the bad
   block's header (the device layer leaves the poison armed for
   multi-block requests — see [Disk.inject_error]). *)

let[@kpath.intr] cluster_fanout t members ~write =
  fun (h : Buf.t) ->
    let err = h.b_error and areas = h.b_cluster in
    release_hdr t h;
    match err with
    | Some _ ->
      (* Cluster breakup: single-block retries isolate the error. *)
      count k_cluster_breakups t;
      List.iter (fun (b : Buf.t) -> start_io t b ~write) members
    | None ->
      List.iteri
        (fun i (b : Buf.t) ->
          if not write then adopt t b areas.(i);
          biodone_ref t b None)
        members

(* One transfer for [members] (ascending, physically contiguous): each
   member is marked in flight the way [start_io] would, without a request
   of its own, and a header carrying their data areas issues it. *)
let[@kpath.intr] cluster_io t (dev : Blkdev.t) (members : Buf.t list) ~write =
  List.iter
    (fun (b : Buf.t) ->
      if write then begin
        Buf.clear b Buf.b_read;
        b.b_sealed <- true
      end
      else Buf.set b Buf.b_read;
      Buf.clear b (Buf.b_done lor Buf.b_error_flag);
      b.b_error <- None)
    members;
  let hdr = getblk_hdr t dev (List.hd members).Buf.b_blkno in
  hdr.b_cluster <- Array.of_list (List.map (fun (b : Buf.t) -> b.b_data) members);
  Buf.set hdr Buf.b_call;
  hdr.b_iodone <- Some (cluster_fanout t members ~write);
  start_io t hdr ~write

let[@kpath.intr] breadn t (dev : Blkdev.t) blkno ~n ~iodone =
  let n = max 1 (min n t.max_cluster) in
  match getblk_nb t dev blkno with
  | None -> `Busy
  | Some b0 ->
    if Buf.valid b0 then begin
      count k_hits t;
      `Hit b0
    end
    else begin
      (* Extend the run while the next block is absent from the cache (a
         cached or busy block truncates the run — re-reading it would
         clobber newer data) and a buffer can be recycled for it. *)
      let members = ref [ b0 ] in
      let k = ref 1 in
      let stop = ref false in
      while (not !stop) && !k < n do
        let bn = blkno + !k in
        if bn >= dev.Blkdev.dv_nblocks || incore t dev bn != nobuf
        then stop := true
        else
          match getblk_nb t dev bn with
          | None -> stop := true
          | Some b ->
            members := b :: !members;
            incr k
      done;
      let members = List.rev !members in
      List.iter
        (fun (b : Buf.t) ->
          count k_misses t;
          Buf.set b Buf.b_call;
          b.b_iodone <- Some iodone)
        members;
      (match members with
       | [ b ] -> start_io t b ~write:false
       | _ ->
         count k_cluster_reads t;
         cluster_io t dev members ~write:false);
      `Started members
    end

(* One coalesced write for a run of adjacent delayed-write buffers
   (BSD's [cluster_wbuild]): a single strategy call writes the members'
   data areas; completion fans out to release each member ([B_ASYNC]). *)
let flush_cluster t (dev : Blkdev.t) (members : Buf.t list) =
  count k_cluster_writes t;
  List.iter
    (fun (b : Buf.t) ->
      take t b;
      Buf.clear b Buf.b_delwri;
      Buf.set b Buf.b_async;
      count k_fsync_writes t)
    members;
  cluster_io t dev members ~write:true

let[@kpath.blocks] flush_blocks t dev blknos =
  let flushable blkno =
    match incore t dev blkno with
    | b when (not (Buf.has b Buf.b_busy)) && Buf.has b Buf.b_delwri -> Some b
    | _ -> None
  in
  (* Walk the work list coalescing runs of adjacent dirty blocks, at
     most max_cluster long; a one-block run is a plain flush. *)
  let rec go = function
    | [] -> ()
    | blkno :: rest -> (
      match flushable blkno with
      | None -> go rest
      | Some b ->
        let members = ref [ b ] in
        let k = ref 1 in
        let rest = ref rest in
        let stop = ref false in
        while (not !stop) && !k < t.max_cluster do
          match !rest with
          | next :: tl when next = blkno + !k -> (
            match flushable next with
            | Some nb ->
              members := nb :: !members;
              incr k;
              rest := tl
            | None -> stop := true)
          | _ -> stop := true
        done;
        (match List.rev !members with
         | [ _ ] -> flush_start t dev blkno
         | ms -> flush_cluster t dev ms);
        go !rest)
  in
  go blknos;
  List.iter (flush_await t dev) blknos

let[@kpath.blocks] flush_dev t (dev : Blkdev.t) =
  let blknos =
    Array.fold_left
      (fun acc (b : Buf.t) ->
        if b.b_in_hash && dev_id b = dev.Blkdev.dv_id then b.b_blkno :: acc
        else acc)
      [] t.bufs
    |> List.sort compare
  in
  flush_blocks t dev blknos

(* Folds over the pool: the flags and refcounts are the only record. *)
let count_bufs t p =
  Array.fold_left (fun n b -> if p b then n + 1 else n) 0 t.bufs

let busy_count t = count_bufs t (fun b -> Buf.has b Buf.b_busy)

let pinned_count t = count_bufs t (fun b -> b.Buf.b_refs > 0)

let dirty_count t = count_bufs t (fun b -> Buf.has b Buf.b_delwri)

let hash_buckets t = Array.length t.heads

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  (* bufhash: every chained buffer is hashed, in its key's bucket, on one
     chain exactly once (a revisit is a second chain or a cycle), and
     the first buffer its key finds, so identities are unique; the
     chains hold every hashed buffer. *)
  let on_chain = Array.make t.n false in
  let chained = ref 0 in
  Array.iteri
    (fun h head ->
      let i = ref head in
      while !i >= 0 do
        let b = t.bufs.(!i) in
        if on_chain.(!i) then fail "%a on a chain twice" Buf.pp b;
        on_chain.(!i) <- true;
        incr chained;
        if not b.b_in_hash then fail "un-hashed %a on a chain" Buf.pp b;
        if bucket t (dev_id b) b.b_blkno <> h then
          fail "%a chained in bucket %d" Buf.pp b h;
        if chain t (dev_id b) b.b_blkno head != b then
          fail "%a shares its identity" Buf.pp b;
        i := t.hnext.(!i)
      done)
    t.heads;
  let hashed = count_bufs t (fun b -> b.Buf.b_in_hash) in
  if !chained <> hashed then
    fail "bufhash chains hold %d buffers, %d are hashed" !chained hashed;
  Array.iter
    (fun (b : Buf.t) ->
      if Buf.has b Buf.b_delwri && not (Buf.has b Buf.b_done) then
        fail "dirty but invalid: %a" Buf.pp b;
      if b.b_refs < 0 then fail "negative refcount: %a" Buf.pp b;
      if b.b_refs > 0 && not (Buf.has b Buf.b_busy) then
        fail "pinned but not busy: %a" Buf.pp b)
    t.bufs;
  if t.hdrs_out < 0 then fail "negative outstanding header count";
  (* The free and dirty lists agree with the flags: every non-busy
     cache-owned buffer sits on exactly the list its delwri flag says,
     links are mutually consistent, and each list is LRU (stamp) ordered. *)
  let walk which head =
    let rec go prev i n =
      if i < 0 then n
      else begin
        let b = t.bufs.(i) in
        if t.onlist.(i) <> which then fail "list tag mismatch on %a" Buf.pp b;
        if t.fprev.(i) <> prev then fail "broken prev link at %a" Buf.pp b;
        if Buf.has b Buf.b_busy then fail "busy buffer on a list: %a" Buf.pp b;
        (if which = l_dirty && not (Buf.has b Buf.b_delwri) then
           fail "clean buffer on the dirty list: %a" Buf.pp b);
        (if which = l_free && Buf.has b Buf.b_delwri then
           fail "dirty buffer on the free list: %a" Buf.pp b);
        (if prev >= 0 then
           let p = t.bufs.(prev) in
           if compare (p.Buf.b_stamp, p.Buf.b_id) (b.b_stamp, b.b_id) > 0 then
             fail "list out of LRU order at %a" Buf.pp b);
        go i t.fnext.(i) (n + 1)
      end
    in
    go (-1) head 0
  in
  let nfree = walk l_free t.free_head in
  let ndirty = walk l_dirty t.dirty_head in
  let nbusy = busy_count t in
  if nfree + ndirty + nbusy <> t.n then
    fail "list lengths inconsistent: %d free + %d dirty + %d busy <> %d pool"
      nfree ndirty nbusy t.n;
  Array.iter
    (fun (b : Buf.t) ->
      if (not (Buf.has b Buf.b_busy)) && t.onlist.(b.b_id) = l_none then
        fail "non-busy buffer on no list: %a" Buf.pp b)
    t.bufs
