open Kpath_sim
open Kpath_proc
open Kpath_dev
open Kpath_buf

(* A small rig: engine, scheduler, one disk and a cache; [body] runs in a
   process. *)
let with_rig ?(nbufs = 8) ?(max_cluster = 1) body =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let disk =
    Disk.create ~name:"d0" ~geometry:Disk.rz58 ~block_size:512 ~nblocks:256
      ~intr_service:(Time.us 60) ~engine ~intr ()
  in
  let dev = Disk.blkdev disk in
  let cache = Cache.create ~block_size:512 ~nbufs ~max_cluster () in
  let result = ref None in
  let p =
    Sched.spawn sched ~name:"rig" (fun () -> result := Some (body cache dev disk))
  in
  Engine.run engine;
  Sched.check_deadlock sched;
  (match p.Process.exit_status with
   | Some (Process.Crashed e) -> raise e
   | _ -> ());
  Cache.check_invariants cache;
  Option.get !result

(* Every writer of a buffer's data owns it first: its area may be
   sealed, shared with the device's store. *)
let fill_buf cache b c =
  Cache.own cache b ~keep:false;
  Bytes.fill b.Buf.b_data 0 (Bytes.length b.Buf.b_data) c

let test_getblk_claims_busy () =
  with_rig (fun cache dev _ ->
      let b = Cache.getblk cache dev 5 in
      Alcotest.(check bool) "busy" true (Buf.has b Buf.b_busy);
      Alcotest.(check bool) "not valid yet" false (Buf.valid b);
      Alcotest.(check int) "busy count" 1 (Cache.busy_count cache);
      Cache.brelse cache b;
      Alcotest.(check int) "released" 0 (Cache.busy_count cache))

let test_getblk_same_identity () =
  with_rig (fun cache dev _ ->
      let b1 = Cache.getblk cache dev 5 in
      Cache.brelse cache b1;
      let b2 = Cache.getblk cache dev 5 in
      Alcotest.(check bool) "same buffer" true (b1 == b2);
      Cache.brelse cache b2)

let test_bread_miss_then_hit () =
  with_rig (fun cache dev disk ->
      Disk.write_block_direct disk 3 (Bytes.make 512 'p');
      let b = Cache.bread cache dev 3 in
      Alcotest.(check bool) "valid" true (Buf.valid b);
      Alcotest.(check char) "contents" 'p' (Bytes.get b.Buf.b_data 0);
      Cache.brelse cache b;
      let served = Disk.serviced disk in
      let b2 = Cache.bread cache dev 3 in
      Alcotest.(check int) "no new I/O on hit" served (Disk.serviced disk);
      Cache.brelse cache b2;
      Alcotest.(check int) "one hit" 1 (Stats.get (Cache.stats cache) "cache.hits");
      Alcotest.(check int) "one miss" 1 (Stats.get (Cache.stats cache) "cache.misses"))

let test_bwrite_persists () =
  with_rig (fun cache dev disk ->
      let b = Cache.getblk cache dev 7 in
      fill_buf cache b 'w';
      Cache.bwrite cache b;
      Alcotest.(check bytes) "on disk" (Bytes.make 512 'w')
        (Disk.read_block_direct disk 7))

let test_bdwrite_delays_until_flush () =
  with_rig (fun cache dev disk ->
      let b = Cache.getblk cache dev 9 in
      fill_buf cache b 'd';
      Cache.bdwrite cache b;
      Alcotest.(check int) "dirty" 1 (Cache.dirty_count cache);
      Alcotest.(check bytes) "not yet on disk" (Bytes.make 512 '\000')
        (Disk.read_block_direct disk 9);
      Cache.flush_blocks cache dev [ 9 ];
      Alcotest.(check int) "clean" 0 (Cache.dirty_count cache);
      Alcotest.(check bytes) "flushed" (Bytes.make 512 'd')
        (Disk.read_block_direct disk 9))

let test_bawrite_releases_automatically () =
  with_rig (fun cache dev disk ->
      let b = Cache.getblk cache dev 2 in
      fill_buf cache b 'a';
      Cache.bawrite cache b;
      (* Wait for the write by re-acquiring the block. *)
      let b2 = Cache.getblk cache dev 2 in
      Cache.brelse cache b2;
      Alcotest.(check bytes) "written" (Bytes.make 512 'a')
        (Disk.read_block_direct disk 2);
      Alcotest.(check int) "no busy left" 0 (Cache.busy_count cache))

let test_lru_eviction_and_dirty_writeback () =
  with_rig ~nbufs:4 (fun cache dev disk ->
      (* Dirty block 0, then stream 5 more blocks through the 4-buffer
         cache; block 0 must be written back when its buffer is
         recycled. *)
      let b0 = Cache.getblk cache dev 0 in
      fill_buf cache b0 'z';
      Cache.bdwrite cache b0;
      for i = 1 to 5 do
        let b = Cache.bread cache dev i in
        Cache.brelse cache b
      done;
      (* Wait out any in-flight flush by reclaiming the block. *)
      let b0' = Cache.getblk cache dev 0 in
      Cache.brelse cache b0';
      Alcotest.(check bytes) "victim write-back happened" (Bytes.make 512 'z')
        (Disk.read_block_direct disk 0);
      Alcotest.(check int) "nothing left dirty" 0 (Cache.dirty_count cache))

let test_biowait_error_propagates () =
  with_rig (fun cache dev disk ->
      Disk.inject_error disk ~blkno:4;
      let b = Cache.bread cache dev 4 in
      (match b.Buf.b_error with
       | Some (Blkdev.Io_error _) -> ()
       | None -> Alcotest.fail "expected error");
      Alcotest.(check bool) "flagged" true (Buf.has b Buf.b_error_flag);
      Cache.brelse cache b;
      (* Error release drops the identity so a retry re-reads. *)
      Alcotest.(check bool) "identity dropped" true (not (Cache.cached cache dev 4));
      let b2 = Cache.bread cache dev 4 in
      Alcotest.(check bool) "retry succeeds" true (Buf.valid b2);
      Cache.brelse cache b2)

let test_breada_prefetches () =
  with_rig (fun cache dev disk ->
      Disk.write_block_direct disk 10 (Bytes.make 512 'x');
      Disk.write_block_direct disk 11 (Bytes.make 512 'y');
      let b = Cache.breada cache dev 10 ~ahead:11 in
      Cache.brelse cache b;
      (* Give the read-ahead a chance to complete. *)
      Kpath_proc.Process.yield ();
      let served = Disk.serviced disk in
      let b2 = Cache.bread cache dev 11 in
      Alcotest.(check char) "prefetched data" 'y' (Bytes.get b2.Buf.b_data 0);
      Alcotest.(check int) "no extra device read" served (Disk.serviced disk);
      Cache.brelse cache b2)

let test_getblk_nb_busy_returns_none () =
  with_rig (fun cache dev _ ->
      let b = Cache.getblk cache dev 1 in
      Alcotest.(check bool) "nb on busy" true (Cache.getblk_nb cache dev 1 = None);
      Cache.brelse cache b;
      (match Cache.getblk_nb cache dev 1 with
       | Some b2 ->
         Alcotest.(check bool) "same identity" true (b2 == b);
         Cache.brelse cache b2
       | None -> Alcotest.fail "expected buffer"))

let test_bread_nb_hit_started_busy () =
  with_rig (fun cache dev _ ->
      (* Prime block 6. *)
      let b = Cache.bread cache dev 6 in
      Cache.brelse cache b;
      (match Cache.bread_nb cache dev 6 ~iodone:(fun _ -> ()) with
       | `Hit hb ->
         Alcotest.(check bool) "valid hit" true (Buf.valid hb);
         Cache.brelse cache hb
       | `Started _ | `Busy -> Alcotest.fail "expected hit");
      (match
         Cache.bread_nb cache dev 20 ~iodone:(fun b -> Cache.brelse cache b)
       with
       | `Started sb ->
         Alcotest.(check bool) "in flight busy" true (Buf.has sb Buf.b_busy);
         Alcotest.(check bool) "nb sees it busy" true
           (Cache.getblk_nb cache dev 20 = None)
       | `Hit _ | `Busy -> Alcotest.fail "expected started");
      (* Sleeping on the busy buffer waits out the read. *)
      let b = Cache.bread cache dev 20 in
      Cache.brelse cache b)

let test_bread_nb_started_completes () =
  let fired = ref false in
  with_rig (fun cache dev _ ->
      (match
         Cache.bread_nb cache dev 20 ~iodone:(fun b ->
             fired := true;
             Cache.brelse cache b)
       with
       | `Started _ -> ()
       | `Hit _ | `Busy -> Alcotest.fail "expected started");
      (* Wait for the device: read the same block (sleeps on busy). *)
      let b = Cache.bread cache dev 20 in
      Cache.brelse cache b);
  Alcotest.(check bool) "iodone ran" true !fired

let test_awrite_call_runs_handler () =
  let handler_ran = ref false in
  with_rig (fun cache dev disk ->
      let b = Cache.getblk cache dev 15 in
      fill_buf cache b 'h';
      Cache.awrite_call cache b ~iodone:(fun hb ->
          handler_ran := true;
          Cache.brelse cache hb);
      (* Wait for completion by re-acquiring. *)
      let b2 = Cache.getblk cache dev 15 in
      Cache.brelse cache b2;
      Alcotest.(check bytes) "written" (Bytes.make 512 'h')
        (Disk.read_block_direct disk 15));
  Alcotest.(check bool) "B_CALL handler" true !handler_ran

let test_getblk_hdr_aliasing () =
  with_rig (fun cache dev disk ->
      let src = Cache.getblk cache dev 30 in
      fill_buf cache src 's';
      let hdr = Cache.getblk_hdr cache dev 31 in
      hdr.Buf.b_data <- src.Buf.b_data;
      Alcotest.(check bool) "shares the data area" true
        (hdr.Buf.b_data == src.Buf.b_data);
      let done_ = ref false in
      Cache.awrite_call cache hdr ~iodone:(fun hb ->
          done_ := true;
          Cache.release_hdr cache hb);
      (* Poll for completion. *)
      let b = Cache.bread cache dev 31 in
      Cache.brelse cache b;
      Alcotest.(check bool) "write done" true !done_;
      Alcotest.(check bytes) "no-copy write landed" (Bytes.make 512 's')
        (Disk.read_block_direct disk 31);
      Cache.brelse cache src;
      (* Header pool reuse. *)
      let hdr2 = Cache.getblk_hdr cache dev 1 in
      Alcotest.(check bool) "pooled" true (hdr2 == hdr);
      Cache.release_hdr cache hdr2)

let test_invalidate_cached () =
  with_rig (fun cache dev _ ->
      let b = Cache.bread cache dev 12 in
      Cache.brelse cache b;
      Alcotest.(check bool) "cached" true (Cache.cached cache dev 12);
      Cache.invalidate_cached cache dev 12;
      Alcotest.(check bool) "gone" true (not (Cache.cached cache dev 12));
      (* Absent block: no-op, must not allocate. *)
      Cache.invalidate_cached cache dev 200;
      Alcotest.(check bool) "still absent" true (not (Cache.cached cache dev 200)))

let test_invalidate_dev () =
  with_rig (fun cache dev _ ->
      for i = 0 to 3 do
        let b = Cache.bread cache dev i in
        Cache.brelse cache b
      done;
      Cache.invalidate_dev cache dev;
      for i = 0 to 3 do
        Alcotest.(check bool) "cold" true (not (Cache.cached cache dev i))
      done)

let test_two_processes_contend_for_buffer () =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let disk =
    Disk.create ~name:"d0" ~geometry:Disk.rz58 ~block_size:512 ~nblocks:64
      ~intr_service:(Time.us 60) ~engine ~intr ()
  in
  let dev = Disk.blkdev disk in
  let cache = Cache.create ~block_size:512 ~nbufs:4 () in
  let order = ref [] in
  let _p1 =
    Sched.spawn sched ~name:"p1" (fun () ->
        let b = Cache.getblk cache dev 0 in
        Sched.sleep sched (Time.ms 5);
        order := "p1-release" :: !order;
        Cache.brelse cache b)
  in
  let _p2 =
    Sched.spawn sched ~name:"p2" (fun () ->
        Process.yield ();
        let b = Cache.getblk cache dev 0 in
        order := "p2-acquired" :: !order;
        Cache.brelse cache b)
  in
  Engine.run engine;
  Sched.check_deadlock sched;
  Alcotest.(check (list string)) "blocked until release"
    [ "p1-release"; "p2-acquired" ] (List.rev !order);
  Cache.check_invariants cache

(* {1 Alias reference counts (splice-graph fan-out)} *)

let test_pin_defers_release () =
  with_rig (fun cache dev _ ->
      let b = Cache.getblk cache dev 7 in
      Cache.pin cache b;
      Cache.pin cache b;
      Alcotest.(check int) "pinned count" 1 (Cache.pinned_count cache);
      Alcotest.check_raises "brelse refuses a pinned buffer"
        (Invalid_argument "brelse: buffer still pinned") (fun () ->
          Cache.brelse cache b);
      Cache.unpin cache b;
      Alcotest.(check bool) "still busy after first unpin" true
        (Buf.has b Buf.b_busy);
      Cache.unpin cache b;
      Alcotest.(check bool) "the holder still holds it" true
        (Buf.has b Buf.b_busy);
      Cache.brelse cache b;
      Alcotest.(check bool) "the holder's release releases" false
        (Buf.has b Buf.b_busy);
      Alcotest.(check int) "nothing busy" 0 (Cache.busy_count cache);
      Alcotest.(check int) "nothing pinned" 0 (Cache.pinned_count cache);
      Alcotest.(check int) "pins counted" 2
        (Stats.get (Cache.stats cache) "cache.pins");
      Alcotest.(check int) "unpins counted" 2
        (Stats.get (Cache.stats cache) "cache.unpins"))

let test_unpin_exactly_once () =
  with_rig (fun cache dev _ ->
      let b = Cache.getblk cache dev 9 in
      Cache.pin cache b;
      Cache.unpin cache b;
      (* The pin is gone; another unpin is a double release and must be
         refused loudly. *)
      Alcotest.check_raises "double release caught"
        (Invalid_argument "Cache.unpin: buffer not pinned") (fun () ->
          Cache.unpin cache b);
      Cache.brelse cache b;
      Alcotest.check_raises "brelse once only"
        (Invalid_argument "brelse: buffer not busy") (fun () ->
          Cache.brelse cache b);
      Alcotest.check_raises "pin requires a busy buffer"
        (Invalid_argument "Cache.pin: buffer not busy") (fun () ->
          Cache.pin cache b))

(* {1 Clustered I/O (breadn / flush coalescing)} *)

let stat cache name = Stats.get (Cache.stats cache) name

let test_breadn_full_run () =
  let results = ref [] in
  let delta = ref (-1) in
  with_rig ~max_cluster:4 (fun cache dev disk ->
      for i = 0 to 3 do
        Disk.write_block_direct disk (20 + i)
          (Bytes.make 512 (Char.chr (Char.code 'a' + i)))
      done;
      let served = Disk.serviced disk in
      (match
         Cache.breadn cache dev 20 ~n:4 ~iodone:(fun b ->
             results :=
               (b.Buf.b_blkno, b.Buf.b_error <> None, Bytes.get b.Buf.b_data 0)
               :: !results;
             Cache.brelse cache b)
       with
       | `Started members ->
         Alcotest.(check (list int))
           "members cover the run in ascending order" [ 20; 21; 22; 23 ]
           (List.map (fun (b : Buf.t) -> b.Buf.b_blkno) members)
       | `Hit _ | `Busy -> Alcotest.fail "expected a started cluster");
      (* Sleeping on any member waits out the whole transfer. *)
      let b = Cache.bread cache dev 23 in
      Cache.brelse cache b;
      delta := Disk.serviced disk - served;
      Alcotest.(check int) "one cluster read" 1 (stat cache "cache.cluster_reads"));
  Alcotest.(check int) "one device request for four blocks" 1 !delta;
  Alcotest.(check (list (triple int bool char)))
    "every member completed clean with its own block's bytes"
    [ (20, false, 'a'); (21, false, 'b'); (22, false, 'c'); (23, false, 'd') ]
    (List.sort compare !results)

let test_breadn_truncated_by_cached_and_busy () =
  with_rig ~max_cluster:8 (fun cache dev _ ->
      (* A valid cached block mid-run stops the cluster before it. *)
      let b = Cache.bread cache dev 22 in
      Cache.brelse cache b;
      (match
         Cache.breadn cache dev 20 ~n:8 ~iodone:(fun b -> Cache.brelse cache b)
       with
       | `Started members ->
         Alcotest.(check (list int)) "run stops at the cached block" [ 20; 21 ]
           (List.map (fun (b : Buf.t) -> b.Buf.b_blkno) members)
       | `Hit _ | `Busy -> Alcotest.fail "expected a started cluster");
      let b = Cache.bread cache dev 21 in
      Cache.brelse cache b;
      (* A busy block truncates the same way. *)
      let held = Cache.getblk cache dev 27 in
      (match
         Cache.breadn cache dev 25 ~n:8 ~iodone:(fun b -> Cache.brelse cache b)
       with
       | `Started members ->
         Alcotest.(check (list int)) "run stops at the busy block" [ 25; 26 ]
           (List.map (fun (b : Buf.t) -> b.Buf.b_blkno) members)
       | `Hit _ | `Busy -> Alcotest.fail "expected a started cluster");
      let b = Cache.bread cache dev 26 in
      Cache.brelse cache b;
      Cache.brelse cache held)

let test_breadn_error_poisons_one_block () =
  let results = ref [] in
  let breakups = ref 0 in
  with_rig ~max_cluster:4 (fun cache dev disk ->
      for i = 0 to 3 do
        Disk.write_block_direct disk (20 + i) (Bytes.make 512 'e')
      done;
      Disk.inject_error disk ~blkno:21;
      (match
         Cache.breadn cache dev 20 ~n:4 ~iodone:(fun b ->
             results := (b.Buf.b_blkno, b.Buf.b_error <> None) :: !results;
             Cache.brelse cache b)
       with
       | `Started members ->
         Alcotest.(check int) "run of 4" 4 (List.length members)
       | `Hit _ | `Busy -> Alcotest.fail "expected a started cluster");
      (* Block 20's retry succeeds, so sleeping on it waits out the
         breakup; 21 stays errored, so wait on the last member too. *)
      let b = Cache.bread cache dev 20 in
      Cache.brelse cache b;
      let b = Cache.bread cache dev 23 in
      Cache.brelse cache b;
      breakups := stat cache "cache.cluster_breakups");
  Alcotest.(check int) "cluster broke up once" 1 !breakups;
  Alcotest.(check (list (pair int bool)))
    "only the poisoned block's header carries the error"
    [ (20, false); (21, true); (22, false); (23, false) ]
    (List.sort compare !results)

let test_flush_coalesces_adjacent_only () =
  with_rig ~max_cluster:8 (fun cache dev disk ->
      let dirty blkno c =
        let b = Cache.getblk cache dev blkno in
        fill_buf cache b c;
        Cache.bdwrite cache b
      in
      dirty 10 'a';
      dirty 11 'b';
      dirty 13 'c';
      let served = Disk.serviced disk in
      Cache.flush_blocks cache dev [ 10; 11; 13 ];
      Alcotest.(check int) "adjacent pair rides one request: two writes" 2
        (Disk.serviced disk - served);
      Alcotest.(check int) "one cluster write" 1
        (stat cache "cache.cluster_writes");
      Alcotest.(check int) "all clean" 0 (Cache.dirty_count cache);
      List.iter
        (fun (blkno, c) ->
          Alcotest.(check bytes)
            (Printf.sprintf "block %d persisted" blkno)
            (Bytes.make 512 c)
            (Disk.read_block_direct disk blkno))
        [ (10, 'a'); (11, 'b'); (13, 'c') ])

(* A cluster header carries its members' own data areas, so on blocks
   the RAM disk's store already holds, one 8-block clustered read and one
   8-block coalesced write each allocate less host memory than a single
   block (staging the transfer would cost all eight blocks). *)
let test_cluster_io_in_place () =
  let bs = 8192 and k = 8 in
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let ram =
    Ramdisk.create ~name:"ram0" ~copy_rate:6.7e6 ~block_size:bs ~nblocks:64
      ~engine ~intr ()
  in
  let dev = Ramdisk.blkdev ram in
  let cache = Cache.create ~block_size:bs ~nbufs:16 ~max_cluster:k () in
  let blknos = List.init k (fun i -> 8 + i) in
  let words f =
    let before = Gc.allocated_bytes () in
    f ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let dirty () =
    List.iter
      (fun blkno ->
        let b = Cache.getblk cache dev blkno in
        Cache.own cache b ~keep:false;
        Bytes.fill b.Buf.b_data 0 bs (Char.chr blkno);
        Cache.bdwrite cache b)
      blknos
  in
  let write_words = ref nan and read_words = ref nan and members = ref 0 in
  let firsts = ref [] in
  let _p =
    Sched.spawn sched ~name:"rig" (fun () ->
        (* The first write allocates the blocks in the store. *)
        dirty ();
        Cache.flush_blocks cache dev blknos;
        dirty ();
        write_words := words (fun () -> Cache.flush_blocks cache dev blknos);
        Cache.invalidate_dev cache dev;
        read_words :=
          words (fun () ->
              (match
                 Cache.breadn cache dev 8 ~n:k ~iodone:(fun b -> Cache.brelse cache b)
               with
               | `Started ms -> members := List.length ms
               | `Hit _ | `Busy -> ());
              Cache.brelse cache (Cache.bread cache dev (8 + k - 1)));
        List.iter
          (fun blkno ->
            let b = Cache.bread cache dev blkno in
            firsts := Bytes.get b.Buf.b_data (bs - 1) :: !firsts;
            Cache.brelse cache b)
          blknos)
  in
  Engine.run engine;
  Sched.check_deadlock sched;
  Cache.check_invariants cache;
  Alcotest.(check int) "one cluster read of 8" k !members;
  Alcotest.(check int) "one cluster write per flush" 2 (stat cache "cache.cluster_writes");
  Alcotest.(check (list char)) "blocks read back in place"
    (List.map Char.chr blknos) (List.rev !firsts);
  let block_words = float_of_int (bs / (Sys.word_size / 8)) in
  if !write_words >= block_words then
    Alcotest.failf "8-block write allocated %.0f words (one block is %.0f)"
      !write_words block_words;
  if !read_words >= block_words then
    Alcotest.failf "8-block read allocated %.0f words (one block is %.0f)"
      !read_words block_words

(* Reads share the store's areas instead of copying: two reads of one
   block, however far apart, hand back the same sealed area, and every
   never-written block reads as one shared zero area. An 8-block
   cluster read makes no block area: the pool buffers' private areas
   it displaces go onto the free list. *)
let test_reads_share_store_areas () =
  with_rig ~nbufs:16 ~max_cluster:8 (fun cache dev disk ->
      Disk.write_block_direct disk 3 (Bytes.make 512 'p');
      let b = Cache.bread cache dev 3 in
      let area = b.Buf.b_data in
      Alcotest.(check bool) "a read seals the buffer" true b.Buf.b_sealed;
      Cache.brelse cache b;
      Cache.invalidate_dev cache dev;
      let b = Cache.bread cache dev 3 in
      Alcotest.(check bool) "the second read gets the same area" true
        (b.Buf.b_data == area);
      Cache.brelse cache b;
      let z1 = Cache.bread cache dev 40 in
      let z2 = Cache.bread cache dev 41 in
      Alcotest.(check bool) "never-written blocks share one zero area" true
        (z1.Buf.b_data == z2.Buf.b_data);
      Alcotest.(check bytes) "which reads as zeros" (Bytes.make 512 '\000')
        z1.Buf.b_data;
      Cache.brelse cache z1;
      Cache.brelse cache z2;
      Cache.invalidate_dev cache dev;
      let made = stat cache "cache.areas_made" in
      let spare = Cache.spare_areas cache in
      let before = Gc.allocated_bytes () in
      let members =
        match
          Cache.breadn cache dev 100 ~n:8 ~iodone:(fun b ->
              Cache.brelse cache b)
        with
        | `Started ms -> List.length ms
        | `Hit _ | `Busy -> 0
      in
      let words =
        (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
      in
      Cache.brelse cache (Cache.bread cache dev 107);
      Alcotest.(check int) "one cluster read of 8" 8 members;
      Alcotest.(check int) "no area made" made (stat cache "cache.areas_made");
      if words >= 512.0 /. float_of_int (Sys.word_size / 8) then
        Alcotest.failf "8-block cluster read allocated %.0f words" words;
      Alcotest.(check bool)
        (Printf.sprintf "displaced private areas on the free list (%d -> %d)"
           spare (Cache.spare_areas cache))
        true
        (Cache.spare_areas cache > spare))

(* [own ~keep:true] gives the writer a private copy: the device and
   anything sharing the old area — a payload view, say — keep the old
   bytes until the buffer is written, and the view keeps them after. *)
let test_own_keeps_sharers_intact () =
  with_rig (fun cache dev disk ->
      Disk.write_block_direct disk 5 (Bytes.make 512 'a');
      let b = Cache.bread cache dev 5 in
      let view = Payload.of_bytes b.Buf.b_data in
      Cache.own cache b ~keep:true;
      Alcotest.(check bool) "a private area" false
        (b.Buf.b_data == Payload.data view || b.Buf.b_sealed);
      Alcotest.(check bytes) "holding the old contents" (Bytes.make 512 'a')
        b.Buf.b_data;
      Bytes.fill b.Buf.b_data 0 8 'z';
      let stored = Bytes.make 512 'a' in
      Alcotest.(check bytes) "device unchanged before the write" stored
        (Disk.read_block_direct disk 5);
      Alcotest.(check bytes) "view unchanged" stored (Payload.data view);
      Cache.own cache b ~keep:true;
      Alcotest.(check bytes) "owning again is a no-op" (Bytes.make 8 'z')
        (Bytes.sub b.Buf.b_data 0 8);
      Cache.bwrite cache b;
      Bytes.fill stored 0 8 'z';
      Alcotest.(check bytes) "device updated by the write" stored
        (Disk.read_block_direct disk 5);
      Alcotest.(check bytes) "view still the old bytes" (Bytes.make 512 'a')
        (Payload.data view);
      Payload.release view)

(* Property: with [max_cluster = 1], [breadn] is [bread_nb] — byte- and
   event-identical, down to the simulated clock and cache stats. *)
let prop_cluster1_identity =
  QCheck.Test.make
    ~name:"max_cluster=1: breadn is byte- and event-identical to bread_nb"
    ~count:40
    (QCheck.make
       ~print:
         QCheck.Print.(list (pair int int))
       QCheck.Gen.(list_size (1 -- 12) (pair (0 -- 40) (1 -- 4))))
    (fun ops ->
      let run use_breadn =
        let engine = Engine.create () in
        let sched = Sched.create engine in
        let intr ~service fn = Sched.interrupt sched ~service fn in
        let disk =
          Disk.create ~name:"d0" ~geometry:Disk.rz58 ~block_size:512
            ~nblocks:64 ~intr_service:(Time.us 60) ~engine ~intr ()
        in
        let dev = Disk.blkdev disk in
        for i = 0 to 63 do
          Disk.write_block_direct disk i (Bytes.make 512 (Char.chr (32 + i)))
        done;
        let cache = Cache.create ~block_size:512 ~nbufs:6 ~max_cluster:1 () in
        let log = Buffer.create 64 in
        let record (b : Buf.t) =
          Buffer.add_char log (Bytes.get b.Buf.b_data 0);
          Cache.brelse cache b
        in
        let _p =
          Sched.spawn sched ~name:"drv" (fun () ->
              List.iter
                (fun (blkno, n) ->
                  (if use_breadn then
                     match Cache.breadn cache dev blkno ~n ~iodone:record with
                     | `Hit b -> record b
                     | `Started _ | `Busy -> ()
                   else
                     match Cache.bread_nb cache dev blkno ~iodone:record with
                     | `Hit b -> record b
                     | `Started _ | `Busy -> ());
                  (* Serialise: wait out any in-flight read. *)
                  let b = Cache.bread cache dev blkno in
                  Buffer.add_char log (Bytes.get b.Buf.b_data 0);
                  Cache.brelse cache b)
                ops)
        in
        Engine.run engine;
        Sched.check_deadlock sched;
        Cache.check_invariants cache;
        ( Buffer.contents log,
          Disk.serviced disk,
          Time.to_us_f (Engine.now engine),
          Stats.get (Cache.stats cache) "cache.hits",
          Stats.get (Cache.stats cache) "cache.misses" )
      in
      run true = run false)

(* A process-context victim search that pushes a delayed write out to a
   RAM disk is suspended for the bcopy, which the disk charges to the
   caller. Interrupt-level code that claims the chosen clean buffer
   meanwhile must not see it handed out a second time. *)
let test_victim_claimed_during_pushout () =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let charge_in_context span =
    Sched.in_process_context sched
    && begin
         Process.use_cpu Process.Sys span;
         true
       end
  in
  let rd =
    Ramdisk.create ~name:"r0" ~copy_rate:1e6 ~block_size:512 ~nblocks:64
      ~charge_in_context ~engine ~intr ()
  in
  let dev = Ramdisk.blkdev rd in
  let cache = Cache.create ~block_size:512 ~nbufs:2 () in
  let stolen = ref None in
  let p =
    Sched.spawn sched ~name:"rig" (fun () ->
        (* One delayed write, older than the one clean buffer. *)
        Cache.bdwrite cache (Cache.getblk cache dev 10);
        Cache.brelse cache (Cache.getblk cache dev 11);
        ignore
          (Engine.schedule_after engine (Time.ns 1) (fun () ->
               stolen := Cache.getblk_nb cache dev 20));
        let got = Cache.getblk_nb cache dev 30 in
        Alcotest.(check bool) "the pushout let interrupt code in" true
          (Option.is_some !stolen);
        (match (!stolen, got) with
         | Some s, Some g when s == g ->
           Alcotest.fail "one buffer handed out twice"
         | _ -> ());
        Option.iter (Cache.brelse cache) !stolen;
        Option.iter (Cache.brelse cache) got)
  in
  Engine.run engine;
  (match p.Process.exit_status with
   | Some (Process.Crashed e) -> raise e
   | _ -> ());
  Cache.check_invariants cache;
  Alcotest.(check int) "nothing busy" 0 (Cache.busy_count cache)


(* A cache hit allocates nothing: the bufhash lookup returns the buffer
   itself, with no key tuple and no option box, and the counters bump
   through resolved keys. *)
let test_hit_no_alloc () =
  with_rig (fun cache dev _ ->
      Cache.brelse cache (Cache.bread cache dev 4);
      let words f =
        f ();
        let before = Gc.minor_words () in
        for _ = 1 to 1000 do
          f ()
        done;
        Gc.minor_words () -. before
      in
      let getblk = words (fun () -> Cache.brelse cache (Cache.getblk cache dev 4)) in
      let bread = words (fun () -> Cache.brelse cache (Cache.bread cache dev 4)) in
      Alcotest.(check (float 0.0)) "getblk + brelse hit" 0.0 getblk;
      Alcotest.(check (float 0.0)) "bread hit" 0.0 bread)

(* The bufhash index against a reference map, over random operations on
   two devices whose blocks collide: the devices' ids are equal modulo
   the bucket count, so a block number shares its chain on both, and
   the block numbers drawn are equal modulo the bucket count too. The
   reference follows the buffers getblk hands out (a recycled buffer's
   old identity is gone), so it predicts [cached] without modelling the
   LRU order. *)
type op =
  | Get of int * int  (* device, block index *)
  | Rel of int  (* one of the held buffers *)
  | Dw of int
  | Inval of int * int
  | Inval_dev of int
  | Flush_dev of int

let pp_op = function
  | Get (d, j) -> Printf.sprintf "get %d/%d" d j
  | Rel i -> Printf.sprintf "rel %d" i
  | Dw i -> Printf.sprintf "dw %d" i
  | Inval (d, j) -> Printf.sprintf "inval %d/%d" d j
  | Inval_dev d -> Printf.sprintf "inval_dev %d" d
  | Flush_dev d -> Printf.sprintf "flush_dev %d" d

let gen_op =
  QCheck.Gen.(
    let dev = 0 -- 1 and blk = 0 -- 5 and held = 0 -- 7 in
    frequency
      [
        (6, map2 (fun d j -> Get (d, j)) dev blk);
        (3, map (fun i -> Rel i) held);
        (3, map (fun i -> Dw i) held);
        (2, map2 (fun d j -> Inval (d, j)) dev blk);
        (1, map (fun d -> Inval_dev d) dev);
        (1, map (fun d -> Flush_dev d) dev);
      ])

let prop_bufhash_reference =
  QCheck.Test.make ~name:"bufhash agrees with a reference map" ~count:150
    (QCheck.make ~print:QCheck.Print.(list pp_op)
       QCheck.Gen.(list_size (1 -- 60) gen_op))
    (fun ops ->
      let engine = Engine.create () in
      let sched = Sched.create engine in
      let intr ~service fn = Sched.interrupt sched ~service fn in
      let cache = Cache.create ~block_size:512 ~nbufs:6 () in
      let nb = Cache.hash_buckets cache in
      let disk name =
        Disk.blkdev
          (Disk.create ~name ~geometry:Disk.rz58 ~block_size:512 ~nblocks:64
             ~intr_service:(Time.us 60) ~engine ~intr ())
      in
      let d0 = disk "d0" in
      (* Ids are handed out in order: skip to one congruent to d0's. *)
      while (Blkdev.next_id () + 1 - d0.Blkdev.dv_id) mod nb <> 0 do
        ()
      done;
      let devs = [| d0; disk "d1" |] in
      assert ((devs.(1).Blkdev.dv_id - d0.Blkdev.dv_id) mod nb = 0);
      let blocks = [| 0; 1; nb; nb + 1; 2 * nb; (3 * nb) + 1 |] in
      (* (device, block) -> (buffer id, valid) *)
      let reference = Hashtbl.create 16 in
      let held = ref [] in
      let dev_index (b : Buf.t) =
        match b.Buf.b_dev with
        | Some dv when dv == devs.(0) -> 0
        | Some _ -> 1
        | None -> -1
      in
      let holds d blk =
        List.exists (fun b -> dev_index b = d && b.Buf.b_blkno = blk) !held
      in
      let holds_dev d = List.exists (fun b -> dev_index b = d) !held in
      let nth_held i = List.nth !held (i mod List.length !held) in
      let drop b = held := List.filter (fun x -> x != b) !held in
      let check () =
        Cache.check_invariants cache;
        Alcotest.(check int) "busy = held" (List.length !held)
          (Cache.busy_count cache);
        Array.iteri
          (fun d dev ->
            Array.iter
              (fun blk ->
                let expected =
                  match Hashtbl.find_opt reference (d, blk) with
                  | Some (_, valid) -> valid
                  | None -> false
                in
                if Cache.cached cache dev blk <> expected then
                  Alcotest.failf "cached d%d/%d: expected %b" d blk expected)
              blocks)
          devs
      in
      let step = function
        | Get (d, j) ->
          let blk = blocks.(j) in
          if (not (holds d blk)) && List.length !held < 6 then begin
            let b = Cache.getblk cache devs.(d) blk in
            (match Hashtbl.find_opt reference (d, blk) with
             | Some (id, valid) ->
               Alcotest.(check int) "same buffer" id b.Buf.b_id;
               Alcotest.(check bool) "same validity" valid (Buf.valid b)
             | None -> Alcotest.(check bool) "fresh buffer" false (Buf.valid b));
            Hashtbl.filter_map_inplace
              (fun _ ((id, _) as v) -> if id = b.Buf.b_id then None else Some v)
              reference;
            Hashtbl.replace reference (d, blk) (b.Buf.b_id, Buf.valid b);
            held := b :: !held
          end
        | Rel i when !held <> [] ->
          let b = nth_held i in
          drop b;
          Cache.brelse cache b
        | Dw i when !held <> [] ->
          let b = nth_held i in
          drop b;
          Cache.bdwrite cache b;
          Hashtbl.replace reference (dev_index b, b.Buf.b_blkno) (b.Buf.b_id, true)
        | Rel _ | Dw _ -> ()
        | Inval (d, j) ->
          let blk = blocks.(j) in
          if not (holds d blk) then begin
            Cache.invalidate_cached cache devs.(d) blk;
            Hashtbl.remove reference (d, blk)
          end
        | Inval_dev d -> (
          match Cache.invalidate_dev cache devs.(d) with
          | () ->
            if holds_dev d then Alcotest.fail "invalidated a held buffer";
            Array.iter (fun blk -> Hashtbl.remove reference (d, blk)) blocks
          | exception Invalid_argument _ ->
            if not (holds_dev d) then Alcotest.fail "refused with nothing held")
        | Flush_dev d -> if not (holds_dev d) then Cache.flush_dev cache devs.(d)
      in
      let p =
        Sched.spawn sched ~name:"ops" (fun () ->
            List.iter
              (fun op ->
                step op;
                (* Let pushed-out delayed writes land. *)
                Sched.sleep sched (Time.ms 200);
                check ())
              ops;
            List.iter (Cache.brelse cache) !held;
            held := [];
            check ())
      in
      Engine.run engine;
      (match p.Process.exit_status with
       | Some (Process.Crashed e) -> raise e
       | Some Process.Exited -> ()
       | None -> Alcotest.fail "ops process did not finish");
      true)

let suite =
  [
    Alcotest.test_case "getblk claims busy" `Quick test_getblk_claims_busy;
    Alcotest.test_case "getblk identity stable" `Quick test_getblk_same_identity;
    Alcotest.test_case "bread miss then hit" `Quick test_bread_miss_then_hit;
    Alcotest.test_case "bwrite persists" `Quick test_bwrite_persists;
    Alcotest.test_case "bdwrite delays" `Quick test_bdwrite_delays_until_flush;
    Alcotest.test_case "bawrite auto-release" `Quick test_bawrite_releases_automatically;
    Alcotest.test_case "LRU eviction + write-back" `Quick test_lru_eviction_and_dirty_writeback;
    Alcotest.test_case "I/O error propagation" `Quick test_biowait_error_propagates;
    Alcotest.test_case "breada prefetch" `Quick test_breada_prefetches;
    Alcotest.test_case "getblk_nb" `Quick test_getblk_nb_busy_returns_none;
    Alcotest.test_case "victim claimed during pushout" `Quick
      test_victim_claimed_during_pushout;
    Alcotest.test_case "bread_nb hit" `Quick test_bread_nb_hit_started_busy;
    Alcotest.test_case "bread_nb started completes" `Quick test_bread_nb_started_completes;
    Alcotest.test_case "awrite_call handler" `Quick test_awrite_call_runs_handler;
    Alcotest.test_case "header aliasing (no copy)" `Quick test_getblk_hdr_aliasing;
    Alcotest.test_case "invalidate one block" `Quick test_invalidate_cached;
    Alcotest.test_case "invalidate device" `Quick test_invalidate_dev;
    Alcotest.test_case "buffer contention" `Quick test_two_processes_contend_for_buffer;
    Alcotest.test_case "pin defers release" `Quick test_pin_defers_release;
    Alcotest.test_case "unpin exactly once" `Quick test_unpin_exactly_once;
    Alcotest.test_case "breadn full run, one interrupt" `Quick
      test_breadn_full_run;
    Alcotest.test_case "breadn truncated by cached/busy block" `Quick
      test_breadn_truncated_by_cached_and_busy;
    Alcotest.test_case "breadn error isolated by breakup" `Quick
      test_breadn_error_poisons_one_block;
    Alcotest.test_case "flush coalesces adjacent dirty blocks" `Quick
      test_flush_coalesces_adjacent_only;
    Alcotest.test_case "cluster I/O moves blocks in place" `Quick
      test_cluster_io_in_place;
    Alcotest.test_case "reads share the store's areas" `Quick
      test_reads_share_store_areas;
    Alcotest.test_case "own keeps sharers intact" `Quick
      test_own_keeps_sharers_intact;
    Util.qcheck prop_cluster1_identity;
    Alcotest.test_case "hit allocates nothing" `Quick test_hit_no_alloc;
    Util.qcheck prop_bufhash_reference;
  ]
