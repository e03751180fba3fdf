open Kpath_sim
open Kpath_proc
open Kpath_net

(* Rig: two interfaces on one segment, a scheduler to run client and
   server processes. Frames are lost with probability [loss], drawn
   from a generator seeded with [seed]. The simulation runs until
   nothing is left to do, or to [until] at the latest. *)
let with_net ?bandwidth ?loss ?seed ?until body =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let net = Netif.create_net ?bandwidth engine in
  (match loss with Some p -> Netif.set_loss net ?seed p | None -> ());
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
   wakeup) and its event pool stays flat for the whole transfer. The
   receiver delays its ACKs, so the sender sees at least one for every
   two full segments, not one per segment. *)
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
    (!acks >= total / Tcp.mss / 2 && !samples > 100);
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

(* A relay interface on the segment between the two ends: a sender on
   [a] connects to the relay, which forwards each TCP frame to the other
   end ([b] for frames from [a], [a] for the rest) unchanged, so the
   receiver on [b] sees the relay as its peer. A frame [drop] picks is
   lost instead. *)
let relay net ~a ~b ~drop =
  let r = Netif.attach net ~name:"relay" ~intr:Util.free_intr () in
  Netif.set_proto_rx r ~proto:Tcp.protocol_number (fun fr ->
      if not (drop fr) then begin
        let out = Netif.alloc_frame net in
        Bytes.blit fr.Netif.f_hdr 0 out.Netif.f_hdr 0 fr.Netif.f_len;
        out.Netif.f_len <- fr.Netif.f_len;
        out.Netif.f_proto <- fr.Netif.f_proto;
        out.Netif.f_port_src <- fr.Netif.f_port_src;
        out.Netif.f_port_dst <- fr.Netif.f_port_dst;
        if fr.Netif.f_pl_len > 0 then
          Netif.frame_set_view out fr.Netif.f_pl ~off:fr.Netif.f_pl_off
            ~len:fr.Netif.f_pl_len;
        out.Netif.f_dst <-
          (if fr.Netif.f_src = Netif.id a then Netif.id b else Netif.id a);
        Netif.transmit r out
      end);
  r

(* The relay loses the stream's first data segment, so the sender must
   retransmit it, whatever else happens to the connection. *)
let test_retransmit_counted () =
  let received = Buffer.create 1024 in
  let retx = ref 0 in
  with_net (fun ~engine:_ ~sched ~net ~a ~b ->
      let dropped = ref false in
      let r =
        relay net ~a ~b ~drop:(fun fr ->
            let first = (not !dropped) && fr.Netif.f_pl_len > 0 in
            if first then dropped := true;
            first)
      in
      let l = Tcp.listen b ~port:80 () in
      let _srv = spawn_sink sched l received in
      let _cli =
        Sched.spawn sched ~name:"client" (fun () ->
            let c =
              Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id r; a_port = 80 } ()
            in
            Tcp.send c (pattern 65536) ~pos:0 ~len:65536;
            Tcp.close c;
            retx := Tcp.retransmits c)
      in
      ());
  Alcotest.(check bytes) "delivered" (pattern 65536) (Buffer.to_bytes received);
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

(* [total] bytes of [sent] queued with send_async in writes of [write]
   bytes by the accepting side, which closes at once, to a reader whose
   receive buffer holds [rcvbuf] bytes. Returns what the reader got and
   the writer's retransmissions. *)
let queue_then_close ?loss ~write ~rcvbuf sent =
  let total = Bytes.length sent in
  let received = Buffer.create total in
  let retx = ref 0 in
  with_net ~bandwidth:40e6 ?loss (fun ~engine:_ ~sched ~net:_ ~a ~b ->
      let l = Tcp.listen b ~port:80 () in
      let _srv =
        Sched.spawn sched ~name:"writer" (fun () ->
            let c = Tcp.accept l in
            let rec queue pos =
              if pos < total then begin
                let n = Int.min write (total - pos) in
                Tcp.send_async c sent ~pos ~len:n ignore;
                queue (pos + n)
              end
            in
            queue 0;
            Tcp.close c;
            retx := Tcp.retransmits c)
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
                drain ()
              end
            in
            drain ())
      in
      ());
  (Buffer.to_bytes received, !retx)

let test_fin_waits_for_writers () =
  (* 4,096 writes of 64 bytes queued with send_async, four times what
     the writer's 64 KB send buffer admits at once, then close, to a
     reader whose 512 KB window lets the whole send buffer go out: the
     FIN waits for the writers still queued, not just for the buffer to
     empty, and the reader gets every byte. *)
  let sent = pattern (4096 * 64) in
  let got, _ = queue_then_close ~write:64 ~rcvbuf:(512 * 1024) sent in
  Alcotest.(check int) "every queued byte delivered" (Bytes.length sent)
    (Bytes.length got);
  Alcotest.(check bytes) "byte-exact" sent got

let test_one_byte_writes_under_loss () =
  (* 128 KB queued as 1-byte send_async writes, each a chunk of its own,
     over a link that loses 5% of its frames. New segments start from
     the send pointer; retransmissions walk from the head, and the
     pointer is reset when the chunk it holds drains. The stream
     arrives byte-exact. *)
  let sent = pattern (128 * 1024) in
  let got, retx =
    queue_then_close ~loss:0.05 ~write:1 ~rcvbuf:(64 * 1024) sent
  in
  Alcotest.(check bool) (Printf.sprintf "losses recovered (%d)" retx) true
    (retx > 0);
  Alcotest.(check bytes) "byte-exact" sent got

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
   [rcvbuf] bytes, which waits [stall] before its first read and pauses
   [pause] after every read of at most 4 KB. The server copies [sent] in
   with {!Tcp.send}, or streams [view] (a payload holding the same
   bytes) with {!Tcp.send_view}. Returns the server's connection (once
   it has closed) and the reader's (once it has seen end of stream). *)
let serve_to_slow_reader ?view ?(stall = Time.zero) ~sched ~a ~b ~rcvbuf
    ~pause sent received =
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
        if Time.(stall > Time.zero) then Sched.sleep sched stall;
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

(* A receive buffer of two full segments: the sender fills it with two
   of them, so the window closes with no fragment held back. *)
let two_segments = 2 * Tcp.mss

let test_zero_window_persist () =
  (* The reader stalls behind a full buffer, so the window stays closed
     for the stall. The sender's persist timer probes it every 5 s
     without spending sequence space: a 4 s stall, shorter than the
     floor, draws no probe (the reader's window update reopens the
     window first), a 6 s one draws one and a 12 s one two. The stream
     arrives intact and, the link being lossless, nothing is ever
     retransmitted. *)
  List.iter
    (fun (stall_s, probes) ->
      let total = 96 * 1024 in
      let sent = pattern total in
      let received = Buffer.create total in
      let srv, cli =
        with_net (fun ~engine:_ ~sched ~net:_ ~a ~b ->
            serve_to_slow_reader ~sched ~a ~b ~rcvbuf:two_segments
              ~stall:(Time.sec stall_s) ~pause:Time.zero sent received)
      in
      Alcotest.(check bytes) "byte-exact" sent (Buffer.to_bytes received);
      Alcotest.(check int) "no retransmissions" 0
        (Tcp.retransmits (conn_of srv));
      Alcotest.(check int)
        (Printf.sprintf "%d s stall: probes" stall_s)
        probes
        (Tcp.persist_probes (conn_of srv));
      Alcotest.(check int) "nothing held out of order" 0
        (Tcp.ooo_bytes (conn_of cli)))
    [ (4, 0); (6, 1); (12, 2) ]

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

(* Send one hand-built segment from [a] (port [sport]) to port [dport]
   on [dst] the way tcp.ml sends its own: the header (flags 1 SYN, 2
   ACK, 4 FIN, then seq, ack and window) in the pooled frame's [f_hdr],
   the data as a payload view. *)
let raw_segment ?(sport = 1234) ?(dport = 80) ?(ack = 0) ?(wnd = 65536) a
    ~dst ~flags ~seq data =
  let fr = Netif.alloc_frame (Netif.net a) in
  fr.Netif.f_dst <- dst;
  fr.Netif.f_proto <- Tcp.protocol_number;
  fr.Netif.f_port_src <- sport;
  fr.Netif.f_port_dst <- dport;
  let h = fr.Netif.f_hdr in
  Bytes.set h 0 (Char.chr flags);
  Bytes.set_int64_le h 1 (Int64.of_int seq);
  Bytes.set_int64_le h 9 (Int64.of_int ack);
  Bytes.set_int32_le h 17 (Int32.of_int wnd);
  fr.Netif.f_len <- Tcp.header_bytes;
  let pl = Payload.of_bytes data in
  Netif.frame_set_view fr pl ~off:0 ~len:(Bytes.length data);
  Payload.release pl;
  Netif.transmit a fr

(* {1 Delayed ACKs}

   A hand-driven sender on [a] talks to a real receiver listening on
   [b]'s port 80. [a] has no TCP, so what the receiver sends it is
   dropped; the receiver's [tcp.segs_out] counts it, and its
   [tcp.delayed_acks] the ACKs that delaying saved. [send] sends a raw
   segment from [a]; [at ms] runs the simulation to [ms] milliseconds.
   The SYN goes first and the receiver's connection exists from then
   on; it is returned once the SYN|ACK is out. *)
let hand_sender () =
  let engine = Engine.create () in
  let net = Netif.create_net engine in
  let a = Netif.attach net ~name:"a" ~intr:Util.free_intr () in
  let b = Netif.attach net ~name:"b" ~intr:Util.free_intr () in
  let l = Tcp.listen b ~port:80 () in
  let send ~flags ~seq data = raw_segment a ~dst:(Netif.id b) ~flags ~seq data in
  let at ms = Engine.run ~until:(Time.ms ms) engine in
  send ~flags:1 ~seq:0 Bytes.empty;
  at 1;
  (engine, send, at, Tcp.accept l)

let acks_out c =
  let st = Tcp.stats c in
  (Stats.get st "tcp.segs_out", Stats.get st "tcp.delayed_acks")

let test_delack_every_second () =
  (* Two in-order segments draw one ACK, sent as the second arrives; the
     first one's ACK is the one saved. Nothing is owed afterwards. *)
  let engine, send, at, c = hand_sender () in
  send ~flags:2 ~seq:0 (pattern 1000);
  send ~flags:2 ~seq:1000 (pattern 1000);
  at 5;
  Alcotest.(check (pair int int)) "SYN|ACK and one ACK, one saved" (2, 1)
    (acks_out c);
  Engine.run engine;
  Alcotest.(check (pair int int)) "no ACK left owed" (2, 1) (acks_out c)

let test_delack_lone_segment () =
  (* A lone segment arrives about 1 ms after it is sent; its ACK waits
     the 40 ms delay for a second segment that never comes, then goes
     on its own, saving nothing. *)
  let engine, send, at, c = hand_sender () in
  send ~flags:2 ~seq:0 (pattern 1000);
  at 40;
  Alcotest.(check (pair int int)) "not yet acknowledged" (1, 0) (acks_out c);
  at 45;
  Alcotest.(check (pair int int)) "acknowledged by the timer" (2, 0)
    (acks_out c);
  Engine.run engine;
  Alcotest.(check (pair int int)) "nothing more" (2, 0) (acks_out c)

let test_delack_immediate_cases () =
  (* A lone segment's ACK is owed. A segment beyond a gap is acknowledged
     at once, carrying the owed ACK; so are the segment that fills the
     gap and the FIN. Each arrives within 5 ms, well inside the 40 ms
     delay, and the stream reads back whole. *)
  let engine, send, at, c = hand_sender () in
  let data = pattern 3000 in
  send ~flags:2 ~seq:0 (Bytes.sub data 0 1000);
  at 5;
  Alcotest.(check (pair int int)) "lone segment: ACK owed" (1, 0) (acks_out c);
  send ~flags:2 ~seq:2000 (Bytes.sub data 2000 1000);
  at 10;
  Alcotest.(check (pair int int)) "out of order: ACK at once" (2, 1)
    (acks_out c);
  send ~flags:2 ~seq:1000 (Bytes.sub data 1000 1000);
  at 15;
  Alcotest.(check (pair int int)) "gap filled: ACK at once" (3, 1)
    (acks_out c);
  send ~flags:6 ~seq:3000 Bytes.empty;
  at 20;
  Alcotest.(check (pair int int)) "FIN: ACK at once" (4, 1) (acks_out c);
  Engine.run engine;
  Alcotest.(check (pair int int)) "nothing owed" (4, 1) (acks_out c);
  let buf = Bytes.create 4096 in
  Alcotest.(check int) "stream complete" 3000 (Tcp.recv c buf ~pos:0 ~len:4096);
  Alcotest.(check bytes) "in order" data (Bytes.sub buf 0 3000);
  Alcotest.(check int) "then end of stream" 0 (Tcp.recv c buf ~pos:0 ~len:4096)

let test_window_update_two_segments () =
  (* The sender fills the reader's 64 KB buffer, and the reader then
     takes its bytes by hand. It announces no window while it has
     reopened less than two segments (4.4BSD's rule), and one update
     once it has. *)
  let engine, send, at, c = hand_sender () in
  let m = Tcp.mss and full = 64 * 1024 in
  let data = pattern full in
  let rec fill seq =
    if seq < full then begin
      let n = Int.min m (full - seq) in
      send ~flags:2 ~seq (Bytes.sub data seq n);
      fill (seq + n)
    end
  in
  fill 0;
  at 200;
  let filled = acks_out c in
  Alcotest.(check (pair int int)) "SYN|ACK and an ACK per two segments"
    (5, 4) filled;
  let buf = Bytes.create full in
  let take n = ignore (Tcp.recv c buf ~pos:0 ~len:n : int) in
  take m;
  Alcotest.(check (pair int int)) "one segment reopened: no update" filled
    (acks_out c);
  take (m - 1);
  Alcotest.(check (pair int int)) "a byte short of two: no update" filled
    (acks_out c);
  take 1;
  Alcotest.(check (pair int int)) "two segments reopened: one update" (6, 4)
    (acks_out c);
  take m;
  Engine.run engine;
  Alcotest.(check (pair int int)) "no second update while it stays open"
    (6, 4) (acks_out c)

(* {1 Sender-side silly-window avoidance}

   A real sender on [a] (port 1) and a hand-driven receiver on [b]'s
   port 80, on a 40 MB/s segment. The receiver answers the SYN with a
   SYN|ACK advertising [wnd], logs each data segment as (seq, length)
   and a FIN as (seq, 0), and acknowledges only as the test says. Once
   connected, the sender queues each of [writes] on the stream (see
   [view] and [copy] below), then shuts down. Every 5 ms the receiver
   notes what has arrived so far and then sends the next of [acks],
   each an (ack, window) pair. Returns the notes, the last one taken
   5 ms after the last acknowledgement, the sender's connection and the
   payload references its socket buffers hold at the end. *)
let sender_against ~wnd ~writes acks =
  let log = ref [] and notes = ref [] and sender = ref None in
  let total = List.fold_left (fun acc (_, _, len) -> acc + len) 0 writes in
  let pl = Payload.of_bytes (pattern total) in
  let views =
    with_net ~bandwidth:40e6 ~until:(Time.sec 1)
      (fun ~engine:_ ~sched ~net ~a ~b ->
        let reply ~flags ~ack ~wnd =
          raw_segment b ~dst:(Netif.id a) ~sport:80 ~dport:1 ~ack ~wnd ~flags
            ~seq:0 Bytes.empty
        in
        Netif.set_proto_rx b ~proto:Tcp.protocol_number (fun fr ->
            let h = fr.Netif.f_hdr in
            let flags = Char.code (Bytes.get h 0) in
            let seq = Int64.to_int (Bytes.get_int64_le h 1) in
            if flags land 1 <> 0 then reply ~flags:3 ~ack:0 ~wnd
            else if fr.Netif.f_pl_len > 0 then
              log := (seq, fr.Netif.f_pl_len) :: !log
            else if flags land 4 <> 0 then log := (seq, 0) :: !log);
        ignore
          (Sched.spawn sched ~name:"sender" (fun () ->
               let c =
                 Tcp.connect a ~port:1
                   ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
                   ()
               in
               sender := Some c;
               List.iter
                 (function
                   | `View, pos, len -> Tcp.send_view c pl ~pos ~len ignore
                   | `Copy, pos, len ->
                     Tcp.send_async c (Payload.data pl) ~pos ~len ignore)
                 writes;
               Tcp.shutdown c));
        ignore
          (Sched.spawn sched ~name:"receiver" (fun () ->
               let note () =
                 Sched.sleep sched (Time.ms 5);
                 notes := List.rev !log :: !notes
               in
               List.iter
                 (fun (ack, wnd) ->
                   note ();
                   reply ~flags:2 ~ack ~wnd)
                 acks;
               note ()));
        fun () -> Tcp.view_chunks net)
  in
  Payload.release pl;
  (List.rev !notes, conn_of sender, views ())

(* The notes alone. *)
let segments_against ~wnd ~writes acks =
  let notes, _, _ = sender_against ~wnd ~writes acks in
  notes

(* [len] bytes at [pos] of one payload, queued as a view of it or
   copied in. *)
let view pos len = (`View, pos, len)

let copy pos len = (`Copy, pos, len)

let segs = Alcotest.(list (list (pair int int)))

let test_sws_window_cut_holds_chunk () =
  (* Three 8 KB views against a 20,000-byte window: two go whole, and
     the 1,574 bytes the windows leave for the third are held, being
     neither the chunk's end nor half the window. A window one byte
     short of the chunk still holds it; one that reaches its end sends
     it whole, and the FIN follows. *)
  let b = 8192 in
  Alcotest.check segs "segments at each step"
    [
      [ (0, b); (b, b) ];
      [ (0, b); (b, b) ];
      [ (0, b); (b, b); (2 * b, b); (3 * b, 0) ];
      [ (0, b); (b, b); (2 * b, b); (3 * b, 0) ];
    ]
    (segments_against ~wnd:20_000
       ~writes:[ view 0 b; view b b; view (2 * b) b ]
       [ (2 * b, b - 1); (2 * b, b); ((3 * b) + 1, 20_000) ])

let test_sws_half_window () =
  (* One 20,000-byte view against a 12,000-byte window, smaller than
     two segments: a full segment goes, and the 3,021 bytes left are
     held. A window of 5,999 bytes still holds them; 6,000, half the
     largest window offered, sends that much. The 5,021 bytes that
     remain reach the chunk's end and go whole, then the FIN. *)
  let m = Tcp.mss in
  Alcotest.check segs "segments at each step"
    [
      [ (0, m) ];
      [ (0, m) ];
      [ (0, m); (m, 6000) ];
      [ (0, m); (m, 6000); (m + 6000, 20_000 - m - 6000); (20_000, 0) ];
      [ (0, m); (m, 6000); (m + 6000, 20_000 - m - 6000); (20_000, 0) ];
    ]
    (segments_against ~wnd:12_000 ~writes:[ view 0 20_000 ]
       [ (m, 5999); (m, 6000); (m + 6000, 12_000); (20_001, 12_000) ])

let test_sws_short_final_chunk () =
  (* Two 8 KB views and a 1,000-byte last one against a 16,900-byte
     window: the 516 bytes left after the first two are held, and so
     are 999; a 1,000-byte window sends the short final chunk whole,
     and the FIN goes after it. *)
  let b = 8192 in
  let last = 2 * b in
  Alcotest.check segs "segments at each step"
    [
      [ (0, b); (b, b) ];
      [ (0, b); (b, b) ];
      [ (0, b); (b, b); (last, 1000); (last + 1000, 0) ];
      [ (0, b); (b, b); (last, 1000); (last + 1000, 0) ];
    ]
    (segments_against ~wnd:16_900
       ~writes:[ view 0 b; view b b; view last 1000 ]
       [ (last, 999); (last, 1000); (last + 1001, 16_900) ])

(* {1 Socket-buffer chunks}

   A segment never crosses the edge of a shared view, but packs copied
   bytes across the copied writes that follow one another, as BSD's
   m_copy does across an mbuf chain. *)

let test_copied_writes_pack () =
  (* Three 8 KB writes held behind a zero window: copied in, they go
     out as whole segments once the window opens (two in the initial
     congestion window, the rest after their ACK); as views, each goes
     as its own 8 KB segment, and the third waits for the ACK, the
     1,574 bytes the congestion window leaves being too few. Once the
     FIN is acknowledged, no chunk holds a reference. *)
  let b = 8192 and m = Tcp.mss in
  let three kind = List.map (fun pos -> (kind, pos, b)) [ 0; b; 2 * b ] in
  let copied, _, copied_views =
    sender_against ~wnd:0 ~writes:(three `Copy)
      [ (0, 65_535); (2 * m, 65_535); ((3 * b) + 1, 65_535) ]
  in
  Alcotest.check segs "copied writes: whole segments"
    [
      [];
      [ (0, m); (m, m) ];
      [ (0, m); (m, m); (2 * m, (3 * b) - (2 * m)); (3 * b, 0) ];
      [ (0, m); (m, m); (2 * m, (3 * b) - (2 * m)); (3 * b, 0) ];
    ]
    copied;
  Alcotest.(check int) "copied: references released" 0 copied_views;
  let views, _, view_views =
    sender_against ~wnd:0 ~writes:(three `View)
      [ (0, 65_535); (2 * b, 65_535); ((3 * b) + 1, 65_535) ]
  in
  Alcotest.check segs "views: one segment each"
    [
      [];
      [ (0, b); (b, b) ];
      [ (0, b); (b, b); (2 * b, b); (3 * b, 0) ];
      [ (0, b); (b, b); (2 * b, b); (3 * b, 0) ];
    ]
    views;
  Alcotest.(check int) "views: references released" 0 view_views

let test_view_bounds_copied_runs () =
  (* Copied, copied, view, copied, copied, held behind a zero window:
     the first two copies pack into one segment, which stops at the
     view; the view goes whole; the last two copies pack once an ACK
     lets all 4,000 bytes of their run go, and then the FIN. *)
  let v = 6000 and w = 6000 + 8192 in
  Alcotest.check segs "segments at each step"
    [
      [];
      [ (0, v); (v, 8192) ];
      [ (0, v); (v, 8192); (w, 4000); (w + 4000, 0) ];
    ]
    (segments_against ~wnd:0
       ~writes:
         [
           copy 0 3000; copy 3000 3000; view v 8192; copy w 2000;
           copy (w + 2000) 2000;
         ]
       [ (0, 65_535); (w, 65_535) ])

(* {1 Loss recovery and the handshake} *)

let test_fast_retransmit_once_per_hole () =
  (* Two 8 KB segments and the FIN are out; the receiver sends six
     duplicate ACKs for the first, then acknowledges everything. The
     third duplicate resends the first segment, and the next three,
     for the same hole, resend nothing. *)
  let b = 8192 in
  let notes, c, _ =
    sender_against ~wnd:65_535
      ~writes:[ view 0 b; view b b ]
      (List.init 6 (fun _ -> (0, 65_535)) @ [ ((2 * b) + 1, 65_535) ])
  in
  Alcotest.check
    Alcotest.(list (pair int int))
    "one resend"
    [ (0, b); (b, b); (2 * b, 0); (0, b) ]
    (List.nth notes (List.length notes - 1));
  let st = Tcp.stats c in
  Alcotest.(check (pair int int)) "fast retransmits, retransmits" (1, 1)
    (Stats.get st "tcp.fast_retx", Stats.get st "tcp.retx")

let test_syn_rcvd_repeated_syn () =
  (* A hand-driven client on [a] sends its SYN twice, as it does when
     the server's SYN|ACK is lost. The server's connection, accepted at
     the first SYN, answers each with a SYN|ACK and is not established
     by the second: the data queued on it waits. The client's ACK
     establishes it, and the data goes. [a] logs each segment it gets
     as (flags, data length). *)
  let engine = Engine.create () in
  let net = Netif.create_net engine in
  let a = Netif.attach net ~name:"a" ~intr:Util.free_intr () in
  let b = Netif.attach net ~name:"b" ~intr:Util.free_intr () in
  let l = Tcp.listen b ~port:80 () in
  let got = ref [] in
  Netif.set_proto_rx a ~proto:Tcp.protocol_number (fun fr ->
      let flags = Char.code (Bytes.get fr.Netif.f_hdr 0) in
      got := (flags, fr.Netif.f_pl_len) :: !got);
  let send ~flags = raw_segment a ~dst:(Netif.id b) ~flags ~seq:0 Bytes.empty in
  let at ms = Engine.run ~until:(Time.ms ms) engine in
  let log = Alcotest.(list (pair int int)) in
  send ~flags:1;
  at 1;
  let c = Tcp.accept l in
  Tcp.send_async c (pattern 1000) ~pos:0 ~len:1000 ignore;
  at 2;
  Alcotest.check log "SYN|ACK" [ (3, 0) ] (List.rev !got);
  send ~flags:1;
  at 3;
  Alcotest.check log "SYN|ACK again, no data" [ (3, 0); (3, 0) ]
    (List.rev !got);
  send ~flags:2;
  at 10;
  Alcotest.check log "established: the data goes"
    [ (3, 0); (3, 0); (2, 1000) ]
    (List.rev !got)

let test_syn_rcvd_gives_up () =
  (* A client sends its SYN and is never heard from again. The server
     accepts, queues a write and closes, which lingers as on an
     established connection. Its SYN|ACK goes out 9 times, at 0, 0.2,
     0.6 and 1.4 s and then every 2 s; 2 s after the last the
     connection gives up, drops the write and lets the close return. *)
  let synacks = ref 0 and closed_at = ref Time.zero in
  let views =
    with_net (fun ~engine ~sched ~net ~a ~b ->
        let l = Tcp.listen b ~port:80 () in
        Netif.set_proto_rx a ~proto:Tcp.protocol_number (fun fr ->
            if Char.code (Bytes.get fr.Netif.f_hdr 0) = 3 then incr synacks);
        raw_segment a ~dst:(Netif.id b) ~flags:1 ~seq:0 Bytes.empty;
        ignore
          (Sched.spawn sched ~name:"server" (fun () ->
               let c = Tcp.accept l in
               Tcp.send c (pattern 1000) ~pos:0 ~len:1000;
               Tcp.close c;
               closed_at := Engine.now engine));
        fun () -> Tcp.view_chunks net)
  in
  Alcotest.(check int) "SYN|ACKs" 9 !synacks;
  Alcotest.(check bool)
    (Printf.sprintf "closed at 13 s (%.3f s)" (Time.to_sec_f !closed_at))
    true
    (Float.abs (Time.to_sec_f !closed_at -. 13.0) < 0.01);
  Alcotest.(check int) "the write dropped" 0 (views ())

(* The server accepts, sends 1-40 writes, each copied in or a view of up
   to 12,000 bytes, and closes; the client connects once, reads to the
   end of the stream and closes. Under up to 19% loss, drawn from a
   generator of its own, and with a receive buffer of 1-64 KB,
   whichever handshake segments are lost: every byte arrives, every
   payload reference is released and both processes finish. *)
let prop_accept_send_close =
  QCheck.Test.make ~name:"tcp accept, send, close under loss" ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(1 -- 40) (pair bool (int_range 1 12_000)))
        (int_range 1024 65_536) (int_range 0 19) (int_range 1 1_000_000))
    (fun (writes, rcvbuf, loss_pct, seed) ->
      let total = List.fold_left (fun acc (_, len) -> acc + len) 0 writes in
      let sent = pattern total in
      let pl = Payload.of_bytes (Bytes.copy sent) in
      let received = Buffer.create total in
      let procs, views =
        with_net ~until:(Time.sec 600) ~loss:(float_of_int loss_pct /. 100.0)
          ~seed (fun ~engine:_ ~sched ~net ~a ~b ->
            let l = Tcp.listen b ~port:80 () in
            let server =
              Sched.spawn sched ~name:"server" (fun () ->
                  let c = Tcp.accept l in
                  ignore
                    (List.fold_left
                       (fun pos (copied, len) ->
                         (if copied then Tcp.send c sent ~pos ~len
                          else
                            Process.block "send-view" (fun k ->
                                Tcp.send_view c pl ~pos ~len k));
                         pos + len)
                       0 writes);
                  Tcp.close c)
            in
            let client =
              Sched.spawn sched ~name:"client" (fun () ->
                  let c =
                    Tcp.connect a ~port:1
                      ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 }
                      ~rcvbuf ()
                  in
                  let buf = Bytes.create 4096 in
                  let rec drain () =
                    let n = Tcp.recv c buf ~pos:0 ~len:4096 in
                    if n > 0 then begin
                      Buffer.add_subbytes received buf 0 n;
                      drain ()
                    end
                  in
                  drain ();
                  Tcp.close c)
            in
            ([ server; client ], fun () -> Tcp.view_chunks net))
      in
      let exited (p : Process.t) =
        match p.exit_status with Some Process.Exited -> true | _ -> false
      in
      Buffer.to_bytes received = sent
      && views () = 0
      && Payload.refs pl = 1
      && List.for_all exited procs)

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
     hold the server back without a single retransmission or probe, and
     the fan-out must run near the client CPU's limit (about 5 MB/s).
     No window cuts a block: each connection sends its 256 blocks as
     one segment each, plus three control segments (its SYN|ACK, its
     FIN and the ACK of the client's FIN). *)
  let clients = 8 and file_bytes = 2 * 1024 * 1024 in
  let r =
    Kpath_workloads.Experiments.measure_fanout ~clients ~file_bytes
      ~bandwidth:40e6 ()
  in
  Alcotest.(check bool) "verified" true r.Kpath_workloads.Experiments.fo_verified;
  Alcotest.(check int) "no retransmissions" 0
    r.Kpath_workloads.Experiments.fo_retransmits;
  Alcotest.(check int) "no probes" 0
    r.Kpath_workloads.Experiments.fo_persist_probes;
  Alcotest.(check int) "one segment per block, three control"
    (clients * ((file_bytes / 8192) + 3))
    r.Kpath_workloads.Experiments.fo_segs_out;
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
    Alcotest.test_case "delayed ACK: every second segment" `Quick
      test_delack_every_second;
    Alcotest.test_case "delayed ACK: a lone segment waits" `Quick
      test_delack_lone_segment;
    Alcotest.test_case "delayed ACK: gaps and FINs at once" `Quick
      test_delack_immediate_cases;
    Alcotest.test_case "SWS: a window cut holds the chunk" `Quick
      test_sws_window_cut_holds_chunk;
    Alcotest.test_case "SWS: half the largest window sends" `Quick
      test_sws_half_window;
    Alcotest.test_case "SWS: a short final chunk, then the FIN" `Quick
      test_sws_short_final_chunk;
    Alcotest.test_case "window update waits for two segments" `Quick
      test_window_update_two_segments;
    Alcotest.test_case "FIN waits for queued writers" `Quick
      test_fin_waits_for_writers;
    Alcotest.test_case "1-byte writes under loss" `Quick
      test_one_byte_writes_under_loss;
    Alcotest.test_case "sub-segment buffer reopens by window update" `Quick
      test_small_buffer_window_update;
    Alcotest.test_case "partly drained reassembly entry delivered" `Quick
      test_partial_reassembly_drain;
    Alcotest.test_case "copied writes pack into whole segments" `Quick
      test_copied_writes_pack;
    Alcotest.test_case "a view bounds the copied runs around it" `Quick
      test_view_bounds_copied_runs;
    Alcotest.test_case "fast retransmit once per hole" `Quick
      test_fast_retransmit_once_per_hole;
    Alcotest.test_case "a repeated SYN draws a SYN|ACK, not establishment"
      `Quick test_syn_rcvd_repeated_syn;
    Alcotest.test_case "an unanswered SYN|ACK gives up after 8 retries"
      `Quick test_syn_rcvd_gives_up;
    Util.qcheck prop_lossy_transfer_integrity;
    Util.qcheck prop_accept_send_close;
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
