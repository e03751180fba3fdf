open Kpath_sim
open Kpath_dev

let make_disk ?(geometry = Disk.rz56) ?(nblocks = 1024) () =
  let engine = Engine.create () in
  let disk =
    Disk.create ~name:"d0" ~geometry ~block_size:8192 ~nblocks
      ~intr_service:(Time.us 60) ~engine ~intr:Util.free_intr ()
  in
  (engine, disk)

let req ~blkno ~write ?(nblk = 1) ~done_ () =
  {
    Blkdev.r_blkno = blkno;
    r_bufs = Array.init nblk (fun _ -> Bytes.create 8192);
    r_write = write;
    r_done = done_;
  }

let run_one engine dev r =
  let fin = ref None in
  dev.Blkdev.dv_strategy
    { r with Blkdev.r_done = (fun e -> r.Blkdev.r_done e; fin := Some (Engine.now engine)) };
  Engine.run engine;
  match !fin with Some t -> t | None -> Alcotest.fail "request never completed"

let test_write_read_roundtrip () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  let data = Bytes.create 8192 in
  Bytes.fill data 0 8192 'z';
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 7; r_bufs = [| data |]; r_write = true;
      r_done = (fun e -> Alcotest.(check bool) "no error" true (e = None)) };
  Engine.run engine;
  (* A read hands back the store's own area in [r_bufs], in place of
     the one passed in. *)
  let rd =
    { Blkdev.r_blkno = 7; r_bufs = [| Bytes.create 8192 |]; r_write = false;
      r_done = (fun e -> Alcotest.(check bool) "no error" true (e = None)) }
  in
  dev.Blkdev.dv_strategy rd;
  Engine.run engine;
  Alcotest.(check bytes) "data round-trips" data rd.Blkdev.r_bufs.(0);
  Alcotest.(check int) "serviced" 2 (Disk.serviced disk);
  (* The direct peek hands out a copy, never the stored block itself. *)
  Bytes.fill (Disk.read_block_direct disk 7) 0 8192 'q';
  Alcotest.(check bytes) "peek is a copy" data (Disk.read_block_direct disk 7)

let test_unwritten_reads_zero () =
  let engine, disk = make_disk () in
  let ram =
    Ramdisk.create ~name:"ram0" ~copy_rate:8.192e6 ~block_size:8192 ~nblocks:64
      ~engine ~intr:Util.free_intr ()
  in
  List.iter
    (fun (name, dev, peek) ->
      let rd =
        { Blkdev.r_blkno = 3; r_bufs = [| Bytes.make 8192 'x' |];
          r_write = false; r_done = (fun _ -> ()) }
      in
      dev.Blkdev.dv_strategy rd;
      Engine.run engine;
      Alcotest.(check bytes) (name ^ " reads zeroes") (Bytes.make 8192 '\000')
        rd.Blkdev.r_bufs.(0);
      Alcotest.(check bytes) (name ^ " peeks zeroes") (Bytes.make 8192 '\000')
        (peek 3))
    [
      ("disk", Disk.blkdev disk, Disk.read_block_direct disk);
      ("ramdisk", Ramdisk.blkdev ram, Ramdisk.read_block_direct ram);
    ]

let test_random_read_costs_seek () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  let t = run_one engine dev (req ~blkno:500 ~write:false ~done_:(fun _ -> ()) ()) in
  (* Seek + rotational latency + media transfer: must exceed the
     media-only time by at least the rotational latency. *)
  let media = Time.span_of_bytes ~bytes_per_sec:Disk.rz56.Disk.media_rate 8192 in
  Alcotest.(check bool) "paid positioning" true
    Time.(t >= Time.add media Disk.rz56.Disk.avg_rot_latency);
  Alcotest.(check int) "one seek" 1 (Disk.seeks disk)

let test_sequential_stream_at_media_rate () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  let n = 64 in
  let fin = ref Time.zero in
  let rec issue i =
    if i < n then
      dev.Blkdev.dv_strategy
        (req ~blkno:i ~write:false
           ~done_:(fun _ ->
             fin := Engine.now engine;
             issue (i + 1))
           ())
  in
  issue 0;
  Engine.run engine;
  let expect =
    Time.span_of_bytes ~bytes_per_sec:Disk.rz56.Disk.media_rate (n * 8192)
  in
  (* Within 30% of pure streaming. *)
  let ratio = Time.to_sec_f !fin /. Time.to_sec_f expect in
  if ratio > 1.3 then Alcotest.failf "stream too slow: %.2fx media" ratio;
  Alcotest.(check bool) "mostly cache hits after warmup" true
    (Disk.cache_hits disk > n / 2)

let test_sequential_faster_than_random () =
  let seq =
    let engine, disk = make_disk () in
    let dev = Disk.blkdev disk in
    let fin = ref Time.zero in
    let rec issue i =
      if i < 32 then
        dev.Blkdev.dv_strategy
          (req ~blkno:i ~write:false
             ~done_:(fun _ -> fin := Engine.now engine; issue (i + 1)) ())
    in
    issue 0;
    Engine.run engine;
    !fin
  in
  let rnd =
    let engine, disk = make_disk () in
    let dev = Disk.blkdev disk in
    let rng = Rng.create ~seed:1 in
    let fin = ref Time.zero in
    let rec issue i =
      if i < 32 then
        dev.Blkdev.dv_strategy
          (req ~blkno:(Rng.int rng 1024) ~write:false
             ~done_:(fun _ -> fin := Engine.now engine; issue (i + 1)) ())
    in
    issue 0;
    Engine.run engine;
    !fin
  in
  Alcotest.(check bool) "sequential at least 3x faster" true
    (Time.to_sec_f rnd > 3.0 *. Time.to_sec_f seq)

let test_rz58_faster_than_rz56 () =
  let run geometry =
    let engine, disk = make_disk ~geometry () in
    let dev = Disk.blkdev disk in
    let fin = ref Time.zero in
    let rec issue i =
      if i < 64 then
        dev.Blkdev.dv_strategy
          (req ~blkno:i ~write:false
             ~done_:(fun _ -> fin := Engine.now engine; issue (i + 1)) ())
    in
    issue 0;
    Engine.run engine;
    !fin
  in
  Alcotest.(check bool) "rz58 streams faster" true
    Time.(run Disk.rz58 < run Disk.rz56)

let test_sequential_write_stream () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  let fin = ref Time.zero in
  let rec issue i =
    if i < 32 then
      dev.Blkdev.dv_strategy
        (req ~blkno:i ~write:true
           ~done_:(fun _ -> fin := Engine.now engine; issue (i + 1)) ())
  in
  issue 0;
  Engine.run engine;
  let expect =
    Time.span_of_bytes ~bytes_per_sec:Disk.rz56.Disk.media_rate (32 * 8192)
  in
  let ratio = Time.to_sec_f !fin /. Time.to_sec_f expect in
  if ratio > 1.3 then Alcotest.failf "write stream too slow: %.2fx" ratio

let test_write_invalidates_readahead () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  (* Prime a read-ahead segment on blocks 0..3, write into block 4,
     then read 4: data must be the new data. *)
  let rec prime i k =
    if i < 4 then
      dev.Blkdev.dv_strategy (req ~blkno:i ~write:false ~done_:(fun _ -> prime (i + 1) k) ())
    else k ()
  in
  let data = Bytes.make 8192 'w' in
  prime 0 (fun () ->
      dev.Blkdev.dv_strategy
        { Blkdev.r_blkno = 4; r_bufs = [| data |]; r_write = true;
          r_done =
            (fun _ ->
              let out = [| Bytes.create 8192 |] in
              dev.Blkdev.dv_strategy
                { Blkdev.r_blkno = 4; r_bufs = out; r_write = false;
                  r_done =
                    (fun _ -> Alcotest.(check bytes) "fresh data" data out.(0)) }) });
  Engine.run engine

let test_multi_block_request () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  (* A scatter-gather write: four separate areas, each one block of its
     own pattern, land on four consecutive device blocks. *)
  let areas =
    Array.init 4 (fun k -> Bytes.init 8192 (fun i -> Char.chr ((i + (k * 37)) land 0xff)))
  in
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 10; r_bufs = areas; r_write = true;
      r_done = (fun _ -> ()) };
  Engine.run engine;
  Array.iteri
    (fun k area ->
      Alcotest.(check bytes)
        (Printf.sprintf "block %d holds area %d" (10 + k) k)
        area
        (Disk.read_block_direct disk (10 + k)))
    areas;
  (* The gather direction: one read hands back the four stored areas in
     the request's slots. *)
  let outs = Array.init 4 (fun _ -> Bytes.make 8192 'x') in
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 10; r_bufs = outs; r_write = false;
      r_done = (fun _ -> ()) };
  Engine.run engine;
  Array.iteri
    (fun k out -> Alcotest.(check bytes) (Printf.sprintf "area %d read back" k) areas.(k) out)
    outs

let test_error_injection () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  Disk.inject_error disk ~blkno:5;
  let got = ref None in
  dev.Blkdev.dv_strategy (req ~blkno:5 ~write:false ~done_:(fun e -> got := e) ());
  Engine.run engine;
  (match !got with
   | Some (Blkdev.Io_error _) -> ()
   | _ -> Alcotest.fail "expected injected error");
  (* One-shot: the next access succeeds. *)
  let got2 = ref (Some (Blkdev.Io_error "unset")) in
  dev.Blkdev.dv_strategy (req ~blkno:5 ~write:false ~done_:(fun e -> got2 := e) ());
  Engine.run engine;
  Alcotest.(check bool) "second access clean" true (!got2 = None)

let test_request_validation () =
  let _, disk = make_disk () in
  let dev = Disk.blkdev disk in
  let bad blkno r_bufs =
    try
      dev.Blkdev.dv_strategy
        { Blkdev.r_blkno = blkno; r_bufs; r_write = false;
          r_done = (fun _ -> ()) };
      false
    with Invalid_argument _ -> true
  in
  let blk () = Bytes.create 8192 in
  Alcotest.(check bool) "negative block" true (bad (-1) [| blk () |]);
  Alcotest.(check bool) "past end" true (bad 1024 [| blk () |]);
  Alcotest.(check bool) "range runs past end" true
    (bad 1022 [| blk (); blk (); blk () |]);
  Alcotest.(check bool) "area shorter than a block" true (bad 0 [| Bytes.create 100 |]);
  Alcotest.(check bool) "one short area in the vector" true
    (bad 0 [| blk (); Bytes.create 8191 |]);
  (* The store keeps a written area itself, so it must be one block. *)
  Alcotest.(check bool) "area longer than a block" true
    (bad 0 [| Bytes.create 8193 |]);
  Alcotest.(check bool) "empty vector" true (bad 0 [||]);
  Alcotest.(check bool) "in range accepted" false (bad 1021 [| blk (); blk (); blk () |])

let test_queue_fifo () =
  let engine, disk = make_disk () in
  let dev = Disk.blkdev disk in
  let order = ref [] in
  List.iter
    (fun b ->
      dev.Blkdev.dv_strategy
        (req ~blkno:b ~write:false ~done_:(fun _ -> order := b :: !order) ()))
    [ 100; 200; 300 ];
  Alcotest.(check bool) "busy while queued" true (Disk.busy disk);
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO service" [ 100; 200; 300 ] (List.rev !order);
  Alcotest.(check bool) "idle after" true (not (Disk.busy disk))

let test_segmented_readahead_handles_two_streams () =
  (* Two interleaved sequential read streams: the RZ58's 4 cache
     segments keep both streaming; the RZ56's single segment thrashes.
     (Both through FIFO queues, alternating requests.) *)
  let run geometry =
    let engine = Engine.create () in
    let disk =
      Disk.create ~name:"d" ~geometry ~block_size:8192 ~nblocks:1024
        ~intr_service:(Time.us 60) ~engine ~intr:Util.free_intr ()
    in
    let dev = Disk.blkdev disk in
    let n = 48 in
    let fin = ref Time.zero in
    let rec issue i =
      if i < n then begin
        let blkno = if i mod 2 = 0 then i / 2 else 512 + (i / 2) in
        dev.Blkdev.dv_strategy
          (req ~blkno ~write:false
             ~done_:(fun _ ->
               fin := Engine.now engine;
               issue (i + 1))
             ())
      end
    in
    issue 0;
    Engine.run engine;
    (Time.to_sec_f !fin, Disk.cache_hits disk)
  in
  let t56, hits56 = run Disk.rz56 in
  let t58, hits58 = run Disk.rz58 in
  Alcotest.(check bool) "rz58 segments give more hits" true (hits58 > hits56);
  (* Normalise away the media-rate difference (2.1 vs 1.66 MB/s). *)
  let norm56 = t56 *. 1.66 and norm58 = t58 *. 2.1 in
  Alcotest.(check bool) "rz58 relatively faster on interleaved streams" true
    (norm58 < norm56)

let test_elevator_orders_by_position () =
  let engine = Engine.create () in
  let disk =
    Disk.create ~name:"d0" ~geometry:Disk.rz56 ~block_size:8192 ~nblocks:1024
      ~intr_service:(Time.us 60) ~queue:Disk.Elevator ~engine
      ~intr:Util.free_intr ()
  in
  let dev = Disk.blkdev disk in
  let order = ref [] in
  (* Queue far-away first, then near: the elevator must service the
     near ones on its way out. First request (block 900) starts service
     immediately; the rest are reordered. *)
  List.iter
    (fun b ->
      dev.Blkdev.dv_strategy
        (req ~blkno:b ~write:false ~done_:(fun _ -> order := b :: !order) ()))
    [ 900; 700; 100; 300; 800 ];
  Engine.run engine;
  Alcotest.(check (list int)) "C-LOOK sweep" [ 900; 100; 300; 700; 800 ]
    (List.rev !order)

let test_elevator_beats_fifo_on_interleaved_streams () =
  let run queue =
    let engine = Engine.create () in
    let disk =
      Disk.create ~name:"d0" ~geometry:Disk.rz56 ~block_size:8192 ~nblocks:1024
        ~intr_service:(Time.us 60) ~queue ~engine ~intr:Util.free_intr ()
    in
    let dev = Disk.blkdev disk in
    (* Two interleaved sequential streams far apart, requests issued in
       alternating order with queue depth 4. *)
    let fin = ref Time.zero in
    let n = 32 in
    let blk i = if i mod 2 = 0 then i / 2 else 512 + (i / 2) in
    let outstanding = ref 0 and next = ref 0 in
    let rec pump () =
      while !outstanding < 4 && !next < n do
        let b = blk !next in
        incr next;
        incr outstanding;
        dev.Blkdev.dv_strategy
          (req ~blkno:b ~write:false
             ~done_:(fun _ ->
               decr outstanding;
               fin := Engine.now engine;
               pump ())
             ())
      done
    in
    pump ();
    Engine.run engine;
    !fin
  in
  let fifo = run Disk.Fifo and elev = run Disk.Elevator in
  Alcotest.(check bool) "elevator no slower" true Time.(elev <= fifo)

(* [find_segment] / [invalidate_around] scan read-ahead segments linearly
   on every request, so [create] caps [readahead_segments]: the shipped
   geometries must fit under the cap, and an oversized geometry must be
   refused loudly. *)
let test_max_segments_guard () =
  List.iter
    (fun (name, (g : Disk.geometry)) ->
      Alcotest.(check bool)
        (name ^ " fits under max_segments")
        true
        (g.Disk.readahead_segments <= Disk.max_segments))
    [ ("rz56", Disk.rz56); ("rz58", Disk.rz58) ];
  let engine = Engine.create () in
  let bad =
    { Disk.rz58 with Disk.readahead_segments = Disk.max_segments + 1 }
  in
  Alcotest.check_raises "oversized geometry refused"
    (Invalid_argument
       (Printf.sprintf
          "Disk.create: %d read-ahead segments > %d (find_segment and \
           invalidate_around scan segments linearly on every request)"
          (Disk.max_segments + 1) Disk.max_segments)) (fun () ->
      ignore
        (Disk.create ~name:"bad" ~geometry:bad ~block_size:8192 ~nblocks:64
           ~intr_service:(Time.us 60) ~engine ~intr:Util.free_intr ()))

let suite =
  [
    Alcotest.test_case "write/read round trip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "unwritten reads zero" `Quick test_unwritten_reads_zero;
    Alcotest.test_case "random read pays seek" `Quick test_random_read_costs_seek;
    Alcotest.test_case "sequential stream rate" `Quick test_sequential_stream_at_media_rate;
    Alcotest.test_case "sequential vs random" `Quick test_sequential_faster_than_random;
    Alcotest.test_case "rz58 beats rz56" `Quick test_rz58_faster_than_rz56;
    Alcotest.test_case "sequential writes stream" `Quick test_sequential_write_stream;
    Alcotest.test_case "write invalidates cache" `Quick test_write_invalidates_readahead;
    Alcotest.test_case "multi-block request" `Quick test_multi_block_request;
    Alcotest.test_case "error injection" `Quick test_error_injection;
    Alcotest.test_case "request validation" `Quick test_request_validation;
    Alcotest.test_case "queue is FIFO" `Quick test_queue_fifo;
    Alcotest.test_case "segmented read-ahead" `Quick test_segmented_readahead_handles_two_streams;
    Alcotest.test_case "elevator ordering" `Quick test_elevator_orders_by_position;
    Alcotest.test_case "elevator vs FIFO" `Quick test_elevator_beats_fifo_on_interleaved_streams;
    Alcotest.test_case "max_segments guard" `Quick test_max_segments_guard;
  ]
