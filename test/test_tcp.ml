open Kpath_sim
open Kpath_proc
open Kpath_net

(* Rig: two interfaces on one segment, a scheduler to run client and
   server processes. The simulation runs until nothing is left to do,
   or to [until] at the latest. *)
let with_net ?bandwidth ?loss ?until body =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let net = Netif.create_net ?bandwidth ~latency:(Time.us 100) engine in
  (match loss with Some p -> Netif.set_loss net p | None -> ());
  let a = Netif.attach net ~name:"a" ~intr () in
  let b = Netif.attach net ~name:"b" ~intr () in
  let r = body ~engine ~sched ~net ~a ~b in
  Engine.run ?until engine;
  Sched.check_deadlock sched;
  r

let pattern n = Bytes.init n (fun i -> Char.chr ((i * 7 + 3) land 0xff))

(* Echo-less sink server: accept, read everything, record it. *)
let spawn_sink sched l received =
  Sched.spawn sched ~name:"server" (fun () ->
      let c = Tcp.accept l in
      let buf = Bytes.create 4096 in
      let rec drain () =
        let n = Tcp.recv c buf ~pos:0 ~len:4096 in
        if n > 0 then begin
          Buffer.add_subbytes received buf 0 n;
          drain ()
        end
      in
      drain ())

let transfer ?bandwidth ?loss total =
  let received = Buffer.create total in
  let sent = pattern total in
  let client_done = ref false in
  with_net ?bandwidth ?loss (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1234
                ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
                ()
            in
            let rec push off =
              if off < total then begin
                let n = min 8000 (total - off) in
                Tcp.send c sent ~pos:off ~len:n;
                push (off + n)
              end
            in
            push 0;
            Tcp.close c;
            client_done := true)
      in
      ());
  Alcotest.(check bool) "client finished" true !client_done;
  Alcotest.(check int) "all bytes delivered" total (Buffer.length received);
  Alcotest.(check bytes) "byte-exact" sent (Buffer.to_bytes received)

let test_handshake_and_small_transfer () = transfer 1000

let test_large_transfer () = transfer (512 * 1024)

let test_transfer_with_loss () = transfer ~loss:0.05 (128 * 1024)

let test_heavy_loss () = transfer ~loss:0.2 (32 * 1024)

(* An ACK-clocked bulk transfer restarts its retransmit timer at every
   ACK that leaves data in flight. The restart moves the one pending
   timer event, so the engine never holds more than a handful of events
   for the connection (the timer, a segment or an ACK on the wire, a
   wakeup) and its event pool stays flat for the whole transfer. *)
let test_rto_restart_keeps_pool_flat () =
  let total = 512 * 1024 in
  let received = Buffer.create total in
  let samples = ref 0 and most = ref 0 and pools = ref [] in
  let acks = ref 0 in
  with_net (fun ~engine ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let conn = ref None in
      let rec sample () =
        (match !conn with
         | Some c ->
           acks := Stats.get (Tcp.stats c) "tcp.segs_in";
           incr samples;
           most := Int.max !most (Engine.pending engine);
           pools := Engine.pool_size engine :: !pools
         | None -> ());
        if Buffer.length received < total then
          ignore (Engine.schedule_after engine (Time.us 500) sample)
      in
      sample ();
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1234
                ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
                ()
            in
            conn := Some c;
            Tcp.send c (pattern total) ~pos:0 ~len:total;
            Tcp.close c)
      in
      ());
  Alcotest.(check int) "all bytes delivered" total (Buffer.length received);
  Alcotest.(check bool)
    (Printf.sprintf "ACK-clocked: %d segments in, %d samples" !acks !samples)
    true
    (!acks > 50 && !samples > 100);
  Alcotest.(check bool)
    (Printf.sprintf "at most 4 events pending (saw %d)" !most)
    true (!most <= 4);
  Alcotest.(check int) "a flat event pool" 1
    (List.length (List.sort_uniq compare !pools))

let test_tables_die_with_net () =
  (* The TCP and UDP demux tables hang off the net: once a simulation
     is dropped, nothing global keeps its segment or sockets alive. *)
  let weak = Weak.create 1 in
  let received = Buffer.create 64 in
  with_net (fun ~engine:_ ~sched ~net ~a ~b ->
      Weak.set weak 0 (Some net);
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1234
                ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
                ()
            in
            Tcp.send c (pattern 100) ~pos:0 ~len:100;
            Tcp.close c)
      in
      Udp.close (Udp.create a ~port:53 ()));
  Alcotest.(check int) "exchange delivered" 100 (Buffer.length received);
  Gc.full_major ();
  Alcotest.(check bool) "net collected" false (Weak.check weak 0)

let test_retransmit_counted () =
  let received = Buffer.create 1024 in
  let retx = ref 0 in
  with_net ~loss:0.1 (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            Tcp.send c (pattern 65536) ~pos:0 ~len:65536;
            Tcp.close c;
            retx := Tcp.retransmits c)
      in
      ());
  Alcotest.(check int) "delivered" 65536 (Buffer.length received);
  Alcotest.(check bool) "recovered through retransmission" true (!retx > 0)

let test_eof_semantics () =
  let eof_seen = ref (-1) in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Tcp.accept l in
            let buf = Bytes.create 64 in
            let n1 = Tcp.recv c buf ~pos:0 ~len:64 in
            let n2 = Tcp.recv c buf ~pos:0 ~len:64 in
            eof_seen := if n2 = 0 && n1 > 0 then 1 else 0)
      in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            Tcp.send c (Bytes.of_string "bye") ~pos:0 ~len:3;
            Tcp.close c)
      in
      ());
  Alcotest.(check int) "data then clean EOF" 1 !eof_seen

let test_backpressure_slow_reader () =
  (* The reader consumes slowly; the writer must be throttled by the
     window, never overrunning the receive buffer, and everything still
     arrives intact. *)
  let total = 256 * 1024 in
  let received = Buffer.create total in
  let sent = pattern total in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Tcp.accept l in
            let buf = Bytes.create 2048 in
            let rec drain () =
              let n = Tcp.recv c buf ~pos:0 ~len:2048 in
              if n > 0 then begin
                Buffer.add_subbytes received buf 0 n;
                Sched.sleep sched (Time.ms 2);
                drain ()
              end
            in
            drain ())
      in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            Tcp.send c sent ~pos:0 ~len:total;
            Tcp.close c)
      in
      ());
  Alcotest.(check int) "all delivered despite pacing" total (Buffer.length received);
  Alcotest.(check bytes) "intact" sent (Buffer.to_bytes received)

let test_send_async_backpressure () =
  (* send_async completions are paced by the send buffer (64 KB): queue
     256 KB at once and count completions over time. *)
  let completions = ref 0 in
  let received = Buffer.create 1024 in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            let chunk = pattern 32768 in
            for _ = 1 to 8 do
              Tcp.send_async c chunk ~pos:0 ~len:32768 (fun () -> incr completions)
            done;
            (* Not everything fits the 64 KB send buffer at once. *)
            Alcotest.(check bool) "backpressured" true (!completions < 8);
            (* Wait for the stream to drain, then close. *)
            let rec wait () =
              if !completions < 8 then begin
                Sched.sleep sched (Time.ms 50);
                wait ()
              end
            in
            wait ();
            Tcp.close c)
      in
      ());
  Alcotest.(check int) "all writers completed" 8 !completions;
  Alcotest.(check int) "all delivered" (8 * 32768) (Buffer.length received)

let test_bidirectional () =
  let to_server = Buffer.create 64 and to_client = Buffer.create 64 in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv =
        Sched.spawn sched ~name:"server" (fun () ->
            let c = Tcp.accept l in
            let buf = Bytes.create 64 in
            let n = Tcp.recv c buf ~pos:0 ~len:64 in
            Buffer.add_subbytes to_server buf 0 n;
            Tcp.send c (Bytes.of_string "pong") ~pos:0 ~len:4;
            Tcp.close c)
      in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            Tcp.send c (Bytes.of_string "ping") ~pos:0 ~len:4;
            let buf = Bytes.create 64 in
            let n = Tcp.recv c buf ~pos:0 ~len:64 in
            Buffer.add_subbytes to_client buf 0 n;
            Tcp.close c)
      in
      ());
  Alcotest.(check string) "c->s" "ping" (Buffer.contents to_server);
  Alcotest.(check string) "s->c" "pong" (Buffer.contents to_client)

let test_connect_timeout () =
  (* No listener: the SYN is never answered and connect gives up. *)
  let failed = ref false in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            match
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 9999 } ()
            with
            | _ -> ()
            | exception Failure _ -> failed := true)
      in
      ());
  Alcotest.(check bool) "connect timed out" true !failed

let test_listen_port_collision () =
  with_net (fun ~engine:_ ~sched:_ ~net:_ ~a ~b:_ ->
      let _l = Tcp.listen a ~port:7 () in
      Alcotest.check_raises "collision"
        (Invalid_argument "Tcp.listen: port 7 in use") (fun () ->
          ignore (Tcp.listen a ~port:7 ())))

let test_send_after_close_rejected () =
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let received = Buffer.create 16 in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            Tcp.close c;
            match Tcp.send_async c (Bytes.create 1) ~pos:0 ~len:1 (fun () -> ()) with
            | () -> Alcotest.fail "send after close accepted"
            | exception Invalid_argument _ -> ())
      in
      ());
  ()

(* Serve [sent] from [b] to a reader on [a] whose receive buffer holds
   [rcvbuf] bytes and which pauses [pause] after every read of at most
   4 KB. The server copies [sent] in with {!Tcp.send}, or streams [view]
   (a payload holding the same bytes) with {!Tcp.send_view}. Returns the
   server's connection (once it has closed) and the reader's (once it
   has seen end of stream). *)
let serve_to_slow_reader ?view ~sched ~a ~b ~rcvbuf ~pause sent received =
  let total = Bytes.length sent in
  let srv = ref None and cli = ref None in
  let l = Tcp.listen b ~port:80 () in
  let _srv =
    Sched.spawn sched ~name:"server" (fun () ->
        let c = Tcp.accept l in
        (match view with
         | None -> Tcp.send c sent ~pos:0 ~len:total
         | Some pl ->
           Process.block "send-view" (fun k ->
               Tcp.send_view c pl ~pos:0 ~len:total k));
        Tcp.close c;
        srv := Some c)
  in
  let _cli =
    Sched.spawn sched ~name:"reader" (fun () ->
        let c =
          Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
            ~rcvbuf ()
        in
        let buf = Bytes.create 4096 in
        let rec drain () =
          let n = Tcp.recv c buf ~pos:0 ~len:4096 in
          if n > 0 then begin
            Buffer.add_subbytes received buf 0 n;
            if Time.(pause > Time.zero) then Sched.sleep sched pause;
            drain ()
          end
        in
        drain ();
        cli := Some c)
  in
  (srv, cli)

let conn_of r =
  match !r with Some c -> c | None -> Alcotest.fail "connection unfinished"

let test_zero_window_persist () =
  (* The reader stalls longer than the retransmission timeout behind a
     16 KB buffer, so the window closes again and again. The sender's
     persist timer probes it without spending sequence space: the
     stream arrives intact and, the link being lossless, nothing is
     ever retransmitted. *)
  let total = 96 * 1024 in
  let sent = pattern total in
  let received = Buffer.create total in
  let srv, cli =
    with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
        serve_to_slow_reader ~sched ~a ~b ~rcvbuf:(16 * 1024)
          ~pause:(Time.ms 100) sent received)
  in
  Alcotest.(check bytes) "byte-exact" sent (Buffer.to_bytes received);
  Alcotest.(check int) "no retransmissions" 0 (Tcp.retransmits (conn_of srv));
  Alcotest.(check bool) "zero window probed" true
    (Tcp.persist_probes (conn_of srv) >= 1);
  Alcotest.(check int) "nothing held out of order" 0
    (Tcp.ooo_bytes (conn_of cli))

let test_small_buffer_window_update () =
  (* A reader that keeps up behind a 2 KB buffer, smaller than one
     segment: each read reopens the window by half the buffer or more,
     which the receiver announces at once, so the sender never needs a
     probe, let alone a retransmission. *)
  let total = 64 * 1024 in
  let sent = pattern total in
  let received = Buffer.create total in
  let srv, _ =
    with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
        serve_to_slow_reader ~sched ~a ~b ~rcvbuf:2048 ~pause:Time.zero sent
          received)
  in
  Alcotest.(check bytes) "byte-exact" sent (Buffer.to_bytes received);
  Alcotest.(check int) "no retransmissions" 0 (Tcp.retransmits (conn_of srv));
  Alcotest.(check int) "no probes" 0 (Tcp.persist_probes (conn_of srv))

(* Send one hand-built segment from [a] to port 80 on [dst] the way
   tcp.ml sends its own: the header (flags 1 SYN, 2 ACK, 4 FIN, then
   seq, ack and window) in the pooled frame's [f_hdr], the data as a
   payload view. *)
let raw_segment a ~dst ~flags ~seq data =
  let fr = Netif.alloc_frame (Netif.net a) in
  fr.Netif.f_dst <- dst;
  fr.Netif.f_proto <- Tcp.protocol_number;
  fr.Netif.f_port_src <- 1234;
  fr.Netif.f_port_dst <- 80;
  let h = fr.Netif.f_hdr in
  Bytes.set h 0 (Char.chr flags);
  Bytes.set_int64_le h 1 (Int64.of_int seq);
  Bytes.set_int64_le h 9 0L;
  Bytes.set_int32_le h 17 65536l;
  fr.Netif.f_len <- Tcp.header_bytes;
  let pl = Payload.of_bytes data in
  Netif.frame_set_view fr pl ~off:0 ~len:(Bytes.length data);
  Payload.release pl;
  Netif.transmit a fr

let test_partial_reassembly_drain () =
  (* A hand-driven peer fills the receiver's 64 KB queue to 56 KB,
     sends the segment at 60 KB ahead of the gap, then resends one
     that overlaps the in-order point by 4 KB. The overlap is trimmed
     and delivered, which fills the gap; the held segment then fits
     only in part. Its rest must reach the reader once a read frees
     space, and the FIN behind it must still end the stream. *)
  let total = 68 * 1024 in
  let sent = pattern total in
  let received = Buffer.create total in
  let held_before = ref (-1) and held_after = ref (-1) in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv =
        Sched.spawn sched ~name:"reader" (fun () ->
            let c = Tcp.accept l in
            Sched.sleep sched (Time.ms 200);
            held_before := Tcp.ooo_bytes c;
            let buf = Bytes.create 4096 in
            let rec drain () =
              let n = Tcp.recv c buf ~pos:0 ~len:4096 in
              if n > 0 then begin
                Buffer.add_subbytes received buf 0 n;
                drain ()
              end
            in
            drain ();
            held_after := Tcp.ooo_bytes c)
      in
      let dst = Netif.id b in
      let data ~seq len =
        raw_segment a ~dst ~flags:2 ~seq (Bytes.sub sent seq len)
      in
      raw_segment a ~dst ~flags:1 ~seq:0 Bytes.empty;
      for i = 0 to 6 do
        data ~seq:(i * 8192) 8192
      done;
      data ~seq:(60 * 1024) 8192;
      data ~seq:(52 * 1024) 8192;
      raw_segment a ~dst ~flags:6 ~seq:total Bytes.empty);
  Alcotest.(check int) "4 KB held beyond a full queue" 4096 !held_before;
  Alcotest.(check bytes) "byte-exact" sent (Buffer.to_bytes received);
  Alcotest.(check int) "nothing held out of order" 0 !held_after

(* Under loss, in both send modes: the reassembly of retained views
   delivers the stream byte-exact and holds nothing at the end, and
   every payload reference is released — the sender's zero-copy payload
   is back to its creator's one. *)
let prop_lossy_transfer_integrity =
  QCheck.Test.make ~name:"tcp delivers byte-exact streams under loss" ~count:100
    QCheck.(
      tup5 (int_range 1 100_000)
        (oneof [ always 0; int_range 1 25 ])
        (int_range 0 20)
        (oneofl [ 2048; 8192; 65536 ])
        (oneofl [ `Send; `Send_view ]))
    (fun (total, loss_pct, pause_ms, rcvbuf, mode) ->
      let received = Buffer.create total in
      let sent = pattern total in
      let pl = Payload.of_bytes (Bytes.copy sent) in
      let view = if mode = `Send_view then Some pl else None in
      let srv, cli, views =
        with_net ~loss:(float_of_int loss_pct /. 100.0)
          (fun ~engine:_ ~sched ~net ~a ~b ->
            let srv, cli =
              serve_to_slow_reader ?view ~sched ~a ~b ~rcvbuf
                ~pause:(Time.ms pause_ms) sent received
            in
            (srv, cli, fun () -> Tcp.view_chunks net))
      in
      Buffer.to_bytes received = sent
      && Tcp.ooo_bytes (conn_of cli) = 0
      && (loss_pct > 0 || Tcp.retransmits (conn_of srv) = 0)
      && Payload.refs pl = 1
      && views () = 0)

let test_congestion_and_rtt () =
  let received = Buffer.create 1024 in
  let cwnd_after = ref 0 and srtt_after = ref None and rto_after = ref Time.zero in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            Alcotest.(check int) "initial cwnd = 2 MSS" (2 * Tcp.mss)
              (Tcp.cwnd c);
            Tcp.send c (pattern 200_000) ~pos:0 ~len:200_000;
            cwnd_after := Tcp.cwnd c;
            srtt_after := Tcp.srtt c;
            rto_after := Tcp.rto c;
            Tcp.close c)
      in
      ());
  Alcotest.(check bool) "slow start grew the window" true
    (!cwnd_after > 4 * 8000);
  (match !srtt_after with
   | Some s -> Alcotest.(check bool) "plausible srtt" true (s > 0.0 && s < 1.0)
   | None -> Alcotest.fail "no RTT sample taken");
  Alcotest.(check bool) "rto adapted below the initial 200ms" true
    Time.(!rto_after < Time.ms 200)

let test_loss_shrinks_cwnd () =
  let received = Buffer.create 1024 in
  let max_cwnd = ref 0 and final_cwnd = ref max_int in
  with_net ~loss:0.08 (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ()
            in
            let chunk = pattern 20_000 in
            for _ = 1 to 10 do
              Tcp.send c chunk ~pos:0 ~len:20_000;
              max_cwnd := max !max_cwnd (Tcp.cwnd c)
            done;
            final_cwnd := Tcp.cwnd c;
            Tcp.close c)
      in
      ());
  Alcotest.(check int) "all delivered" 200_000 (Buffer.length received);
  Alcotest.(check bool) "loss cut the window below its peak" true
    (!final_cwnd < !max_cwnd)

let test_sendfile_modes () =
  List.iter
    (fun (mode, loss) ->
      let r =
        Kpath_workloads.Experiments.measure_sendfile ~mode
          ~file_bytes:(512 * 1024) ~loss ()
      in
      Alcotest.(check bool) "verified" true
        r.Kpath_workloads.Experiments.sf_verified)
    [ (`ReadWrite, 0.0); (`Sendfile, 0.0); (`Sendfile, 0.05) ];
  List.iter
    (fun loss ->
      Alcotest.check_raises (Printf.sprintf "loss %g rejected" loss)
        (Invalid_argument "Netif.set_loss: probability") (fun () ->
          ignore
            (Kpath_workloads.Experiments.measure_sendfile ~mode:`Sendfile
               ~loss ())))
    [ Float.nan; -0.5 ]

let test_fanout_at_client_cpu_limit () =
  (* Eight readers on one client machine share its CPU, so their
     receive queues fill and their windows close. Flow control must
     hold the server back without a single retransmission, and the
     fan-out must run near the client CPU's limit (about 5 MB/s). *)
  let r =
    Kpath_workloads.Experiments.measure_fanout ~clients:8
      ~file_bytes:(2 * 1024 * 1024) ~bandwidth:40e6 ()
  in
  Alcotest.(check bool) "verified" true r.Kpath_workloads.Experiments.fo_verified;
  Alcotest.(check int) "no retransmissions" 0
    r.Kpath_workloads.Experiments.fo_retransmits;
  let kbps = r.Kpath_workloads.Experiments.fo_agg_kb_per_sec in
  if kbps < 4000.0 then Alcotest.failf "aggregate %.0f KB/s < 4000" kbps

let test_sendfile_cpu_advantage () =
  let rw =
    Kpath_workloads.Experiments.measure_sendfile ~mode:`ReadWrite
      ~file_bytes:(1024 * 1024) ()
  in
  let sf =
    Kpath_workloads.Experiments.measure_sendfile ~mode:`Sendfile
      ~file_bytes:(1024 * 1024) ()
  in
  Alcotest.(check bool) "both verified" true
    (rw.Kpath_workloads.Experiments.sf_verified
    && sf.Kpath_workloads.Experiments.sf_verified);
  Alcotest.(check bool) "splice far cheaper on the server" true
    (sf.Kpath_workloads.Experiments.sf_server_cpu_sec
    < 0.5 *. rw.Kpath_workloads.Experiments.sf_server_cpu_sec)

(* One payload fanned out to two connections over send_view is freed
   exactly once — when the last reference (the two conns' chunk chains
   plus the creator's) drops — and its bytes arrive intact at both
   readers. *)
let test_shared_payload_freed_once () =
  let total = 24 * 1024 in
  let sent = pattern total in
  let pl = Payload.of_bytes (Bytes.copy sent) in
  let got = Array.init 2 (fun _ -> Buffer.create total) in
  with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv =
        Sched.spawn sched ~name:"server" (fun () ->
            for _ = 1 to 2 do
              let conn = Tcp.accept l in
              Tcp.send_view conn pl ~pos:0 ~len:total (fun () ->
                  Tcp.shutdown conn)
            done)
      in
      for i = 0 to 1 do
        ignore
          (Sched.spawn sched ~name:(Printf.sprintf "client%d" i) (fun () ->
               let c =
                 Tcp.connect a ~port:(1000 + i)
                   ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
                   ()
               in
               let buf = Bytes.create 4096 in
               let rec drain () =
                 let n = Tcp.recv c buf ~pos:0 ~len:4096 in
                 if n > 0 then begin
                   Buffer.add_subbytes got.(i) buf 0 n;
                   drain ()
                 end
               in
               drain ()))
      done);
  Alcotest.(check int) "sink 0 complete" total (Buffer.length got.(0));
  Alcotest.(check int) "sink 1 complete" total (Buffer.length got.(1));
  Alcotest.(check bytes) "sink 0 intact" sent (Buffer.to_bytes got.(0));
  Alcotest.(check bytes) "sink 1 intact" sent (Buffer.to_bytes got.(1));
  (* Both chains have drained: only the creator's reference is left. *)
  Alcotest.(check int) "chains released their views" 1 (Payload.refs pl);
  Alcotest.(check int) "not freed while referenced" 0 (Payload.frees pl);
  Payload.release pl;
  Alcotest.(check int) "freed exactly once" 1 (Payload.frees pl);
  Alcotest.check_raises "refcount is fail-fast"
    (Invalid_argument "Payload.release: already freed") (fun () ->
      Payload.release pl)

(* The receive side keeps views too. A slow reader lets the stream of
   a send_view payload land before reading: each segment queued at the
   reader holds a reference to the sender's payload, not a copy, and
   reading drains them. A second reader, behind a 16 KB buffer, closes
   with its buffer full and the rest of the stream still to come: the
   close drops what is queued, and what arrives later is acknowledged
   and dropped. Afterwards only the creator's reference is left. (Had
   the close not emptied the full buffer, its zero window would keep
   the sender probing for ever.) *)
let test_receive_retains_views () =
  let total = 24 * 1024 in
  let sent = pattern total in
  let pl = Payload.of_bytes (Bytes.copy sent) in
  let got = Buffer.create total in
  let queued = ref (0, 0) and read_all = ref (0, 0) in
  let views_at_end =
    with_net ~until:(Time.sec 10) (fun ~engine:_ ~sched ~net ~a ~b ->
        let l = Tcp.listen b ~port:80 () in
        let _srv =
          Sched.spawn sched ~name:"server" (fun () ->
              for _ = 1 to 2 do
                let conn = Tcp.accept l in
                Tcp.send_view conn pl ~pos:0 ~len:total (fun () ->
                    Tcp.shutdown conn)
              done)
        in
        let counts () = (Payload.refs pl, Tcp.view_chunks net) in
        let reader i ~rcvbuf body =
          ignore
            (Sched.spawn sched ~name:(Printf.sprintf "reader%d" i) (fun () ->
                 (* Reader 1 starts once reader 0 is done. *)
                 Sched.sleep sched (Time.ms (200 * i));
                 let c =
                   Tcp.connect a ~port:(1000 + i)
                     ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
                     ~rcvbuf ()
                 in
                 (* Long enough for what fits to land and be
                    acknowledged. *)
                 Sched.sleep sched (Time.ms 100);
                 body c))
        in
        reader 0 ~rcvbuf:(64 * 1024) (fun c ->
            (* 24 KB leaves as segments of 8979, 8979 and 6618 bytes:
               three chunks, each holding one reference. *)
            Alcotest.(check (pair int int)) "stream queued as views" (4, 3)
              (counts ());
            let buf = Bytes.create 4096 in
            let rec drain () =
              let n = Tcp.recv c buf ~pos:0 ~len:4096 in
              if n > 0 then begin
                Buffer.add_subbytes got buf 0 n;
                drain ()
              end
            in
            drain ();
            read_all := counts ());
        reader 1 ~rcvbuf:(16 * 1024) (fun c ->
            queued := counts ();
            Tcp.close c);
        fun () -> Tcp.view_chunks net)
  in
  Alcotest.(check bytes) "bytes intact" sent (Buffer.to_bytes got);
  Alcotest.(check (pair int int)) "reading dropped them" (1, 0) !read_all;
  Alcotest.(check bool) "second reader's buffer holds views" true
    (snd !queued >= 2);
  Alcotest.(check int) "no chunk holds a view" 0 (views_at_end ());
  Alcotest.(check int) "only the creator's reference" 1 (Payload.refs pl)

(* Receiving allocates nothing per segment: a segment that arrives as a
   frame view is retained into a chunk from the slab, and reading it
   back copies out of the chain and recycles the chunk. A hand-driven
   peer opens the connection and sends view segments; the receiver's
   acknowledgements go to an interface with no TCP, which drops them. *)
let test_receive_no_alloc () =
  let engine = Engine.create () in
  let net = Netif.create_net engine in
  let a = Netif.attach net ~name:"a" ~intr:Util.free_intr () in
  let b = Netif.attach net ~name:"b" ~intr:Util.free_intr () in
  let l = Tcp.listen b ~port:80 () in
  let seg_len = 1024 in
  let pl = Payload.of_bytes (pattern seg_len) in
  let segment ~flags ~seq ~len =
    let fr = Netif.alloc_frame net in
    fr.Netif.f_dst <- Netif.id b;
    fr.Netif.f_proto <- Tcp.protocol_number;
    fr.Netif.f_port_src <- 1;
    fr.Netif.f_port_dst <- 80;
    let h = fr.Netif.f_hdr in
    Bytes.set h 0 (Char.chr flags);
    Bytes.set_int64_le h 1 (Int64.of_int seq);
    Bytes.set_int64_le h 9 0L;
    Bytes.set_int32_le h 17 65536l;
    fr.Netif.f_len <- Tcp.header_bytes;
    if len > 0 then Netif.frame_set_view fr pl ~off:0 ~len;
    Netif.transmit a fr
  in
  (* The first data segment completes the handshake before the SYN|ACK
     could time out. *)
  segment ~flags:1 ~seq:0 ~len:0;
  segment ~flags:2 ~seq:0 ~len:seg_len;
  Engine.run engine;
  let srv = Tcp.accept l in
  let buf = Bytes.create seg_len in
  let read = ref (Tcp.recv srv buf ~pos:0 ~len:seg_len) in
  let exchange k =
    segment ~flags:2 ~seq:(k * seg_len) ~len:seg_len;
    Engine.run engine;
    read := !read + Tcp.recv srv buf ~pos:0 ~len:seg_len
  in
  for k = 1 to 99 do
    exchange k
  done;
  let before = Gc.minor_words () in
  for k = 100 to 10_099 do
    exchange k
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every byte read" (10_100 * seg_len) !read;
  Alcotest.(check bytes) "last segment intact" (pattern seg_len) buf;
  Alcotest.(check int) "reads released every view" 1 (Payload.refs pl);
  if words > 0.0 then
    Alcotest.failf "receive allocated %.2f words/segment" (words /. 10_000.0)

(* Ports outside 0..65535 would alias another connection's packed
   demux key, so they are refused. *)
let test_port_range () =
  with_net (fun ~engine:_ ~sched:_ ~net:_ ~a ~b ->
      let bad what f =
        match f () with
        | _ -> Alcotest.failf "%s accepted" what
        | exception Invalid_argument _ -> ()
      in
      bad "listen 65536" (fun () -> ignore (Tcp.listen b ~port:65536 ()));
      bad "listen -1" (fun () -> ignore (Tcp.listen b ~port:(-1) ()));
      let dst port = { Tcp.a_if = Netif.id b; a_port = port } in
      bad "connect from 65536" (fun () ->
          ignore (Tcp.connect a ~port:65536 ~dst:(dst 80) ()));
      bad "connect to 65536" (fun () ->
          ignore (Tcp.connect a ~port:1 ~dst:(dst 65536) ()));
      bad "connect to interface 32768" (fun () ->
          ignore
            (Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = 32768; a_port = 80 } ()));
      ignore (Tcp.listen b ~port:65535 ()))

(* Demultiplexing a segment of an established connection allocates
   nothing: the connection table is keyed by one immediate int. The
   segment is a bare ACK for nothing new (header: flags byte, seq and
   ack as 64-bit little-endian, window as 32-bit), so the connection
   only records the peer's window. *)
let test_demux_no_alloc () =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let net = Netif.create_net engine in
  let a = Netif.attach net ~name:"a" ~intr:Util.free_intr () in
  let b = Netif.attach net ~name:"b" ~intr:Util.free_intr () in
  let l = Tcp.listen b ~port:80 () in
  let srv = ref None in
  ignore (Sched.spawn sched ~name:"server" (fun () -> srv := Some (Tcp.accept l)));
  ignore
    (Sched.spawn sched ~name:"client" (fun () ->
         ignore
           (Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } ())));
  Engine.run engine;
  let srv = Option.get !srv in
  let segs_in () = Stats.get (Tcp.stats srv) "tcp.segs_in" in
  let ack () =
    let fr = Netif.alloc_frame net in
    fr.Netif.f_dst <- Netif.id b;
    fr.Netif.f_proto <- Tcp.protocol_number;
    fr.Netif.f_port_src <- 1;
    fr.Netif.f_port_dst <- 80;
    let h = fr.Netif.f_hdr in
    Bytes.set h 0 '\002';
    Bytes.set_int64_le h 1 0L;
    Bytes.set_int64_le h 9 0L;
    Bytes.set_int32_le h 17 65536l;
    fr.Netif.f_len <- Tcp.header_bytes;
    Netif.transmit a fr;
    Engine.run engine
  in
  for _ = 1 to 100 do
    ack ()
  done;
  let segs = segs_in () in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ack ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every segment reached the connection" 10_000
    (segs_in () - segs);
  Alcotest.(check int) "nothing retransmitted" 0 (Tcp.retransmits srv);
  if words > 0.0 then
    Alcotest.failf "demux allocated %.2f words/segment" (words /. 10_000.0)

let suite =
  [
    Alcotest.test_case "port range" `Quick test_port_range;
    Alcotest.test_case "demux allocates nothing" `Quick test_demux_no_alloc;
    Alcotest.test_case "receive allocates nothing" `Quick test_receive_no_alloc;
    Alcotest.test_case "handshake + small transfer" `Quick test_handshake_and_small_transfer;
    Alcotest.test_case "large transfer" `Quick test_large_transfer;
    Alcotest.test_case "RTO restart keeps the pool flat" `Quick
      test_rto_restart_keeps_pool_flat;
    Alcotest.test_case "transfer with 5% loss" `Quick test_transfer_with_loss;
    Alcotest.test_case "transfer with 20% loss" `Quick test_heavy_loss;
    Alcotest.test_case "retransmissions counted" `Quick test_retransmit_counted;
    Alcotest.test_case "EOF semantics" `Quick test_eof_semantics;
    Alcotest.test_case "slow-reader backpressure" `Quick test_backpressure_slow_reader;
    Alcotest.test_case "send_async backpressure" `Quick test_send_async_backpressure;
    Alcotest.test_case "bidirectional" `Quick test_bidirectional;
    Alcotest.test_case "connect timeout" `Quick test_connect_timeout;
    Alcotest.test_case "listen collision" `Quick test_listen_port_collision;
    Alcotest.test_case "send after close" `Quick test_send_after_close_rejected;
    Alcotest.test_case "zero window probed, never retransmitted" `Quick
      test_zero_window_persist;
    Alcotest.test_case "sub-segment buffer reopens by window update" `Quick
      test_small_buffer_window_update;
    Alcotest.test_case "partly drained reassembly entry delivered" `Quick
      test_partial_reassembly_drain;
    Util.qcheck prop_lossy_transfer_integrity;
    Alcotest.test_case "congestion window and RTT" `Quick test_congestion_and_rtt;
    Alcotest.test_case "loss shrinks cwnd" `Quick test_loss_shrinks_cwnd;
    Alcotest.test_case "demux tables die with the net" `Quick
      test_tables_die_with_net;
    Alcotest.test_case "sendfile verified (incl. loss)" `Quick test_sendfile_modes;
    Alcotest.test_case "sendfile CPU advantage" `Quick test_sendfile_cpu_advantage;
    Alcotest.test_case "fan-out at the client CPU limit" `Quick
      test_fanout_at_client_cpu_limit;
    Alcotest.test_case "shared payload freed exactly once" `Quick
      test_shared_payload_freed_once;
    Alcotest.test_case "receive buffers retain the sender's views" `Quick
      test_receive_retains_views;
  ]
