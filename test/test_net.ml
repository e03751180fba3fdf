open Kpath_sim
open Kpath_proc
open Kpath_net

let make_net () =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let net = Netif.create_net ~bandwidth:1.25e6 engine in
  (engine, sched, intr, net)

let test_delivery () =
  let engine, _, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let sa = Udp.create a ~port:1000 () in
  let sb = Udp.create b ~port:2000 () in
  let payload = Bytes.of_string "datagram payload" in
  Udp.sendto sa ~dst:(Udp.addr sb) payload;
  Engine.run engine;
  (match Udp.try_recv sb with
   | Some dg ->
     Alcotest.(check bytes) "payload" payload dg.Udp.d_payload;
     Alcotest.(check int) "source port" 1000 dg.Udp.d_from.Udp.a_port
   | None -> Alcotest.fail "nothing delivered");
  Alcotest.(check int) "tx counted" 1 (Stats.get (Netif.stats a) "netif.tx");
  Alcotest.(check int) "rx counted" 1 (Stats.get (Netif.stats b) "netif.rx")

let test_transmission_takes_time () =
  let engine, _, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let sa = Udp.create a ~port:1 () in
  let sb = Udp.create b ~port:2 () in
  let arrived = ref Time.zero in
  Udp.set_upcall sb (Some (fun _ -> arrived := Engine.now engine));
  Udp.sendto sa ~dst:(Udp.addr sb) (Bytes.create 8000);
  Engine.run engine;
  (* 8042 wire bytes at 1.25 MB/s ~ 6.4 ms, plus 0.1 ms latency. *)
  let t = Time.to_us_f !arrived in
  if t < 6000.0 || t > 8000.0 then Alcotest.failf "arrival at %.0fus" t

(* An interface has one transmit queue: frames leave it one at a time
   at the segment's bandwidth, whether they go to one destination or
   several. *)
let test_tx_serialized () =
  List.iter
    (fun (label, dsts) ->
      let engine, _, intr, net = make_net () in
      let a = Netif.attach net ~name:"a" ~intr () in
      let b = Netif.attach net ~name:"b" ~intr () in
      let c = Netif.attach net ~name:"c" ~intr () in
      let sa = Udp.create a ~port:1 () in
      let arrivals = ref [] in
      let sinks =
        List.map
          (fun nif ->
            let s = Udp.create nif ~port:2 () in
            Udp.set_upcall s
              (Some (fun _ -> arrivals := Engine.now engine :: !arrivals));
            s)
          [ b; c ]
      in
      List.iter
        (fun d ->
          Udp.sendto sa ~dst:(Udp.addr (List.nth sinks d)) (Bytes.create 1208))
        dsts;
      Engine.run engine;
      (* 1250 wire bytes = 1 ms each, serialized: 1, 2, 3 ms (+latency). *)
      match List.rev !arrivals with
      | [ t1; t2; t3 ] ->
        Alcotest.check Util.time (label ^ ": gap 1-2") (Time.ms 1)
          (Time.diff t2 t1);
        Alcotest.check Util.time (label ^ ": gap 2-3") (Time.ms 1)
          (Time.diff t3 t2)
      | _ -> Alcotest.failf "%s: expected 3 arrivals" label)
    [ ("one destination", [ 0; 0; 0 ]); ("two destinations", [ 0; 1; 0 ]) ]

let test_socket_buffer_overflow_drops () =
  let engine, _, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let sa = Udp.create a ~port:1 () in
  let sb = Udp.create b ~port:2 ~rcvbuf:4096 () in
  for _ = 1 to 4 do
    Udp.sendto sa ~dst:(Udp.addr sb) (Bytes.create 2000)
  done;
  Engine.run engine;
  Alcotest.(check int) "two fit" 2 (Udp.pending sb);
  Alcotest.(check int) "two dropped" 2 (Udp.drops sb)

let test_blocking_recv () =
  let engine, sched, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let sa = Udp.create a ~port:1 () in
  let sb = Udp.create b ~port:2 () in
  let got = ref None in
  let _receiver =
    Sched.spawn sched ~name:"rx" (fun () -> got := Udp.recv sb)
  in
  ignore
    (Engine.schedule engine ~at:(Time.ms 5) (fun () ->
         Udp.sendto sa ~dst:(Udp.addr sb) (Bytes.of_string "late")));
  Engine.run engine;
  Sched.check_deadlock sched;
  (match !got with
   | Some dg -> Alcotest.(check string) "got it" "late" (Bytes.to_string dg.Udp.d_payload)
   | None -> Alcotest.fail "recv returned None")

let test_close_wakes_receiver () =
  let engine, sched, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let sa = Udp.create a ~port:1 () in
  let got = ref (Some { Udp.d_from = Udp.addr sa; d_payload = Bytes.empty }) in
  let _receiver = Sched.spawn sched ~name:"rx" (fun () -> got := Udp.recv sa) in
  ignore (Engine.schedule engine ~at:(Time.ms 1) (fun () -> Udp.close sa));
  Engine.run engine;
  Sched.check_deadlock sched;
  Alcotest.(check bool) "None on close" true (!got = None)

let test_port_collision () =
  let _, _, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let _s = Udp.create a ~port:7 () in
  Alcotest.check_raises "port in use" (Invalid_argument "Udp.create: port 7 in use")
    (fun () -> ignore (Udp.create a ~port:7 ()))

let test_unknown_port_dropped () =
  let engine, _, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let sa = Udp.create a ~port:1 () in
  let sb = Udp.create b ~port:2 () in
  Udp.sendto sa ~dst:{ Udp.a_if = Netif.id b; a_port = 999 } (Bytes.create 10);
  Engine.run engine;
  Alcotest.(check int) "nothing queued" 0 (Udp.pending sb)

let test_mtu_enforced () =
  let _, _, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let sa = Udp.create a ~port:1 () in
  Alcotest.check_raises "mtu"
    (Invalid_argument "Netif.transmit: payload exceeds MTU") (fun () ->
      Udp.sendto sa
        ~dst:{ Udp.a_if = Netif.id b; a_port = 2 }
        (Bytes.create 20_000))

let test_loss_and_bandwidth_validated () =
  let _, _, _, net = make_net () in
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "loss %g" p)
        (Invalid_argument "Netif.set_loss: probability") (fun () ->
          Netif.set_loss net p))
    [ Float.nan; -0.5; 1.0 ];
  Netif.set_loss net 0.0;
  Netif.set_loss net 0.5;
  Alcotest.check_raises "bandwidth nan"
    (Invalid_argument "Netif.create_net: bandwidth <= 0") (fun () ->
      ignore (Netif.create_net ~bandwidth:Float.nan (Engine.create ())))

let test_upcall_drains_queue () =
  let engine, _, intr, net = make_net () in
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let sa = Udp.create a ~port:1 () in
  let sb = Udp.create b ~port:2 () in
  Udp.sendto sa ~dst:(Udp.addr sb) (Bytes.of_string "queued");
  Engine.run engine;
  Alcotest.(check int) "buffered" 1 (Udp.pending sb);
  let seen = ref 0 in
  Udp.set_upcall sb (Some (fun _ -> incr seen));
  Alcotest.(check int) "drained into upcall" 1 !seen;
  Alcotest.(check int) "queue empty" 0 (Udp.pending sb)

(* Steady-state pooled forwarding allocates nothing per delivered
   segment: after warm-up, an alloc_frame / transmit / deliver /
   recycle cycle must neither grow the frame pool nor allocate words
   on the OCaml minor heap: per-segment garbage at N clients x K
   segments would dominate a fan-out's heap. *)
let test_pooled_steady_state_no_alloc () =
  let engine = Engine.create () in
  let net = Netif.create_net engine in
  let a = Netif.attach net ~name:"a" ~intr:Util.free_intr () in
  let b = Netif.attach net ~name:"b" ~intr:Util.free_intr () in
  let dst = Netif.id b in
  let send_one () =
    let fr = Netif.alloc_frame net in
    fr.Netif.f_dst <- dst;
    fr.Netif.f_proto <- 6;
    fr.Netif.f_port_src <- 1;
    fr.Netif.f_port_dst <- 2;
    fr.Netif.f_len <- 21;
    Netif.transmit a fr
  in
  (* Each delivery triggers the next transmission, so one Engine.run
     drives the whole chain — the measured region is purely the
     per-frame path. *)
  let delivered = ref 0 in
  let remaining = ref 256 in
  Netif.set_proto_rx b ~proto:6 (fun fr ->
      delivered := !delivered + Netif.frame_bytes fr;
      if !remaining > 0 then begin
        decr remaining;
        send_one ()
      end);
  send_one ();
  Engine.run engine;
  let pool_before = Netif.pool_size net in
  let minor_before = Gc.minor_words () in
  remaining := 10_000;
  send_one ();
  Engine.run engine;
  let per_frame = (Gc.minor_words () -. minor_before) /. 10_001.0 in
  Alcotest.(check int) "pool did not grow" pool_before (Netif.pool_size net);
  Alcotest.(check int) "all delivered" ((257 + 10_001) * 21) !delivered;
  if per_frame > 0.01 then
    Alcotest.failf "steady-state allocation: %.2f words/frame" per_frame

(* Interface ids are numbered per segment, so a long-lived process
   cannot run them past the field transports pack them into. *)
let test_ids_per_segment () =
  let engine = Engine.create () in
  let first () =
    let net = Netif.create_net engine in
    let a = Netif.attach net ~name:"a" ~intr:Util.free_intr () in
    let b = Netif.attach net ~name:"b" ~intr:Util.free_intr () in
    (Netif.id a, Netif.id b)
  in
  let ids = first () in
  Alcotest.(check (pair int int)) "first segment" (1, 2) ids;
  Alcotest.(check (pair int int)) "second segment restarts" (1, 2) (first ())

let suite =
  [
    Alcotest.test_case "interface ids per segment" `Quick test_ids_per_segment;
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "transmission time" `Quick test_transmission_takes_time;
    Alcotest.test_case "tx serialization" `Quick test_tx_serialized;
    Alcotest.test_case "rcvbuf overflow drops" `Quick test_socket_buffer_overflow_drops;
    Alcotest.test_case "blocking recv" `Quick test_blocking_recv;
    Alcotest.test_case "close wakes receiver" `Quick test_close_wakes_receiver;
    Alcotest.test_case "port collision" `Quick test_port_collision;
    Alcotest.test_case "unknown port drop" `Quick test_unknown_port_dropped;
    Alcotest.test_case "MTU enforcement" `Quick test_mtu_enforced;
    Alcotest.test_case "loss and bandwidth validated" `Quick
      test_loss_and_bandwidth_validated;
    Alcotest.test_case "upcall drains queue" `Quick test_upcall_drains_queue;
    Alcotest.test_case "pooled steady state allocates nothing" `Quick
      test_pooled_steady_state_no_alloc;
  ]
