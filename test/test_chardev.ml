open Kpath_sim
open Kpath_dev

(* Ramdisk *)

let make_ram ?(nblocks = 64) ?charge () =
  let engine = Engine.create () in
  let rd =
    Ramdisk.create ~name:"ram0" ~copy_rate:8.192e6 ~block_size:8192 ~nblocks
      ?charge_in_context:charge ~engine ~intr:Util.free_intr ()
  in
  (engine, rd)

let test_ram_roundtrip () =
  let engine, rd = make_ram () in
  let dev = Ramdisk.blkdev rd in
  let data = Bytes.init 8192 (fun i -> Char.chr (i land 0xff)) in
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 9; r_bufs = [| data |]; r_write = true;
      r_done = (fun e -> Alcotest.(check bool) "write ok" true (e = None)) };
  Engine.run engine;
  Alcotest.(check bytes) "stored" data (Ramdisk.read_block_direct rd 9);
  let out = [| Bytes.create 8192 |] in
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 9; r_bufs = out; r_write = false;
      r_done = (fun _ -> ()) };
  Engine.run engine;
  (* The read leaves the stored block's area in the request's slot. *)
  Alcotest.(check bytes) "read back" data out.(0)

let test_ram_copy_takes_time () =
  let engine, rd = make_ram () in
  let dev = Ramdisk.blkdev rd in
  let fin = ref Time.zero in
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 0; r_bufs = [| Bytes.create 8192 |];
      r_write = false;
      r_done = (fun _ -> fin := Engine.now engine) };
  Engine.run engine;
  (* 8 KB at 8.192 MB/s = 1 ms. *)
  Alcotest.check Util.time "one copy time" (Time.ms 1) !fin

let test_ram_copies_serialized () =
  let engine, rd = make_ram () in
  let dev = Ramdisk.blkdev rd in
  let fins = ref [] in
  for i = 0 to 2 do
    dev.Blkdev.dv_strategy
      { Blkdev.r_blkno = i; r_bufs = [| Bytes.create 8192 |];
        r_write = false;
        r_done = (fun _ -> fins := Engine.now engine :: !fins) }
  done;
  Engine.run engine;
  Alcotest.(check (list Util.time)) "back-to-back, one per ms"
    [ Time.ms 1; Time.ms 2; Time.ms 3 ]
    (List.rev !fins)

let test_ram_in_context_charge () =
  let charged = ref Time.zero in
  let charge span = charged := Time.add !charged span; true in
  let engine, rd = make_ram ~charge () in
  let dev = Ramdisk.blkdev rd in
  let done_at = ref None in
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 0; r_bufs = [| Bytes.create 8192 |];
      r_write = false;
      r_done = (fun _ -> done_at := Some (Engine.now engine)) };
  (* The caller is charged synchronously... *)
  Alcotest.check Util.time "caller charged" (Time.ms 1) !charged;
  (* ...but completion is delivered from the event loop (same instant,
     never re-entrant from strategy). *)
  Alcotest.(check bool) "not synchronous" true (!done_at = None);
  Engine.run engine;
  Alcotest.(check (option Util.time)) "completion at the same instant"
    (Some Time.zero) !done_at

let test_ram_error_injection () =
  let engine, rd = make_ram () in
  let dev = Ramdisk.blkdev rd in
  Ramdisk.inject_error rd ~blkno:2;
  let got = ref None in
  dev.Blkdev.dv_strategy
    { Blkdev.r_blkno = 2; r_bufs = [| Bytes.create 8192 |];
      r_write = false; r_done = (fun e -> got := e) };
  Engine.run engine;
  Alcotest.(check bool) "error" true (!got <> None)

let test_shared_arbiter_serializes_two_disks () =
  let engine = Engine.create () in
  let arb = Ramdisk.arbiter () in
  let mk name =
    Ramdisk.create ~name ~copy_rate:8.192e6 ~block_size:8192 ~nblocks:8
      ~arbiter:arb ~engine ~intr:Util.free_intr ()
  in
  let a = mk "ramA" and b = mk "ramB" in
  let fins = ref [] in
  let issue rd =
    (Ramdisk.blkdev rd).Blkdev.dv_strategy
      { Blkdev.r_blkno = 0; r_bufs = [| Bytes.create 8192 |];
        r_write = false;
        r_done = (fun _ -> fins := Engine.now engine :: !fins) }
  in
  issue a;
  issue b;
  Engine.run engine;
  Alcotest.(check (list Util.time)) "cross-device serialization"
    [ Time.ms 1; Time.ms 2 ] (List.rev !fins)

(* Chardev *)

let make_cd ?(rate = 8192.0) ?(fifo = 4096) () =
  let engine = Engine.create () in
  let cd =
    Chardev.create ~name:"dac" ~drain_rate:rate ~fifo_capacity:fifo ~engine
      ~intr:Util.free_intr ()
  in
  (engine, cd)

let test_chardev_drains_at_rate () =
  let engine, cd = make_cd () in
  let data = Bytes.make 4096 'a' in
  let accepted_at = ref Time.zero in
  Chardev.write_async cd data 0 4096 (fun () -> accepted_at := Engine.now engine);
  Engine.run engine;
  (* 4096 bytes at 8192 B/s: fully played after ~0.5 s. *)
  Alcotest.(check int) "all consumed" 4096 (Chardev.consumed cd);
  let t = Time.to_sec_f (Engine.now engine) in
  (* 4 drain ticks of 125 ms plus one trailing empty tick. *)
  if t < 0.45 || t > 0.75 then Alcotest.failf "drain took %.3fs" t;
  (* Fit entirely in the FIFO: accepted immediately. *)
  Alcotest.check Util.time "accepted at once" Time.zero !accepted_at

let test_chardev_write_paced_by_fifo () =
  let engine, cd = make_cd () in
  (* 8 KB into a 4 KB FIFO: acceptance completes only after half has
     drained, i.e. no earlier than 4096/8192 = 0.5 s. *)
  let data = Bytes.make 8192 'b' in
  let accepted_at = ref Time.zero in
  Chardev.write_async cd data 0 8192 (fun () -> accepted_at := Engine.now engine);
  Engine.run engine;
  Alcotest.(check bool) "pacing" true Time.(!accepted_at >= Time.of_sec_f 0.45);
  Alcotest.(check int) "everything played" 8192 (Chardev.consumed cd)

let test_chardev_captures_stream () =
  let engine, cd = make_cd () in
  let data = Bytes.init 2048 (fun i -> Char.chr (i land 0xff)) in
  Chardev.write_async cd data 0 2048 (fun () -> ());
  Engine.run engine;
  Alcotest.(check string) "capture matches" (Bytes.to_string data)
    (String.sub (Chardev.captured cd) 0 2048)

let test_chardev_fifo_ordering_across_writers () =
  let engine, cd = make_cd () in
  Chardev.write_async cd (Bytes.make 1000 'x') 0 1000 (fun () -> ());
  Chardev.write_async cd (Bytes.make 1000 'y') 0 1000 (fun () -> ());
  Engine.run engine;
  let cap = Chardev.captured cd in
  Alcotest.(check string) "x before y"
    (String.make 1000 'x' ^ String.make 1000 'y')
    (String.sub cap 0 2000)

let test_chardev_underrun_detection () =
  let engine, cd = make_cd () in
  Chardev.write_async cd (Bytes.make 1024 'a') 0 1024 (fun () -> ());
  Engine.run engine;
  (* Stream still open, FIFO empty: an underrun tick fired. *)
  Alcotest.(check bool) "underrun counted" true (Chardev.underruns cd >= 1);
  Chardev.close_stream cd;
  let before = Chardev.underruns cd in
  Engine.run engine;
  Alcotest.(check int) "closed stream quiet" before (Chardev.underruns cd)

let test_chardev_try_write () =
  let engine, cd = make_cd () in
  let n = Chardev.try_write cd (Bytes.make 10000 'q') 0 10000 in
  Alcotest.(check int) "clipped to fifo space" 4096 n;
  Engine.run engine;
  Alcotest.(check int) "played what fit" 4096 (Chardev.consumed cd)

(* A NaN rate is as invalid as a zero one, for output and input
   devices alike. *)
let test_nan_rates_rejected () =
  let engine = Engine.create () in
  Alcotest.check_raises "chardev"
    (Invalid_argument "Chardev.create: drain_rate <= 0") (fun () ->
      ignore
        (Chardev.create ~name:"dac" ~drain_rate:Float.nan ~fifo_capacity:4096
           ~engine ~intr:Util.free_intr ()));
  Alcotest.check_raises "micdev" (Invalid_argument "Micdev.create: rate <= 0")
    (fun () ->
      ignore
        (Micdev.create ~name:"mic" ~rate:Float.nan ~engine ~intr:Util.free_intr
           ()));
  Alcotest.check_raises "framebuffer"
    (Invalid_argument "Framebuffer.create: rate <= 0") (fun () ->
      ignore
        (Framebuffer.create ~name:"fb" ~frame_bytes:16 ~frames_per_sec:Float.nan
           ~engine ()))

(* Framebuffer *)

let test_framebuffer_frames () =
  let engine = Engine.create () in
  let fb =
    Framebuffer.create ~name:"fb" ~frame_bytes:1024 ~frames_per_sec:10.0
      ~engine ()
  in
  let got = ref [] in
  let rec grab n =
    if n > 0 then
      Framebuffer.next_frame fb (fun ~seq frame ->
          got := (seq, frame, Engine.now engine) :: !got;
          grab (n - 1))
  in
  grab 3;
  Engine.run engine;
  let frames = List.rev !got in
  Alcotest.(check (list int)) "sequence numbers" [ 0; 1; 2 ]
    (List.map (fun (s, _, _) -> s) frames);
  List.iter
    (fun (seq, frame, _) ->
      Alcotest.(check bytes) "pattern"
        (Framebuffer.frame_pattern ~seq ~size:1024)
        frame)
    frames;
  let _, _, t2 = List.nth frames 2 in
  Alcotest.check Util.time "100 ms per frame" (Time.ms 300) t2

let test_framebuffer_stop () =
  let engine = Engine.create () in
  let fb =
    Framebuffer.create ~name:"fb" ~frame_bytes:16 ~frames_per_sec:100.0 ~engine ()
  in
  Framebuffer.next_frame fb (fun ~seq:_ _ -> Alcotest.fail "should not fire");
  Framebuffer.stop fb;
  Engine.run engine;
  Alcotest.check_raises "next_frame after stop" (Invalid_argument "fb: stopped")
    (fun () -> Framebuffer.next_frame fb (fun ~seq:_ _ -> ()))

let suite =
  [
    Alcotest.test_case "ramdisk round trip" `Quick test_ram_roundtrip;
    Alcotest.test_case "ramdisk copy time" `Quick test_ram_copy_takes_time;
    Alcotest.test_case "ramdisk serialization" `Quick test_ram_copies_serialized;
    Alcotest.test_case "ramdisk in-context charge" `Quick test_ram_in_context_charge;
    Alcotest.test_case "ramdisk error injection" `Quick test_ram_error_injection;
    Alcotest.test_case "shared arbiter" `Quick test_shared_arbiter_serializes_two_disks;
    Alcotest.test_case "chardev drain rate" `Quick test_chardev_drains_at_rate;
    Alcotest.test_case "chardev write pacing" `Quick test_chardev_write_paced_by_fifo;
    Alcotest.test_case "chardev capture" `Quick test_chardev_captures_stream;
    Alcotest.test_case "chardev writer ordering" `Quick test_chardev_fifo_ordering_across_writers;
    Alcotest.test_case "chardev underruns" `Quick test_chardev_underrun_detection;
    Alcotest.test_case "chardev try_write" `Quick test_chardev_try_write;
    Alcotest.test_case "NaN device rates rejected" `Quick test_nan_rates_rejected;
    Alcotest.test_case "framebuffer frames" `Quick test_framebuffer_frames;
    Alcotest.test_case "framebuffer stop" `Quick test_framebuffer_stop;
  ]
