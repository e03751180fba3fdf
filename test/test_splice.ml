open Kpath_sim
open Kpath_proc
open Kpath_dev
open Kpath_fs
open Kpath_net
open Kpath_core
open Kpath_kernel
open Kpath_workloads
module Graph = Kpath_graph.Graph

(* splice(2) from a file is a one-edge splice graph under splice's
   names; these tests drive that graph directly, with the descriptor
   (the graph) and its one edge at hand. *)

(* Rig: a machine with two drives and filesystems; [body] runs in a
   process after a patterned source file exists and caches are cold. *)
let with_machine ?(disk = `Ram) ?(file_bytes = 256 * 1024) body =
  let s = Experiments.make_setup ~disk ~file_bytes () in
  Experiments.cold_caches s;
  let m = s.Experiments.machine in
  let result = ref None in
  let p = Machine.spawn m ~name:"splice-test" (fun () -> result := Some (body s)) in
  Machine.run m;
  (match p.Process.exit_status with
   | Some (Process.Crashed e) -> raise e
   | _ -> ());
  Kpath_buf.Cache.check_invariants (Machine.cache m);
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test body did not finish"

let file_endpoints s =
  let m = s.Experiments.machine in
  let src_fs, src_rel = Option.get (Machine.resolve m s.Experiments.src_path) in
  let src_ino = Fs.lookup src_fs src_rel in
  let dst_fs, dst_rel = Option.get (Machine.resolve m s.Experiments.dst_path) in
  let dst_ino =
    try Fs.lookup dst_fs dst_rel with Fs_error.Error Fs_error.Enoent ->
      Fs.create_file dst_fs dst_rel
  in
  (src_fs, src_ino, dst_fs, dst_ino)

let file_splice m ?config ?(size = Splice.eof) ?off_blocks ~fs ~ino dst =
  let g =
    Graph.create (Machine.graph_ctx m) ~naming:Graph.splice_naming ~fs ~ino
      ?off_blocks ~size ()
  in
  let e = Graph.connect g ?config dst in
  Graph.start g;
  (g, e)

let start_file_splice ?config ?size s =
  let src_fs, src_ino, dst_fs, dst_ino = file_endpoints s in
  file_splice s.Experiments.machine ?config ?size ~fs:src_fs ~ino:src_ino
    (Endpoint.dst_file dst_fs dst_ino ())

(* Run a verifier process over the destination (drives the machine). *)
let verify_runs s =
  let ok = ref false in
  let _v =
    Programs.spawn_verifier s.Experiments.machine ~path:s.Experiments.dst_path
      ~expect_bytes:s.Experiments.file_bytes (fun r -> ok := r)
  in
  Machine.run s.Experiments.machine;
  !ok

let test_whole_file_integrity () =
  let moved =
    with_machine (fun s ->
        let d, e = start_file_splice s in
        match Graph.wait d with
        | Ok n ->
          Alcotest.(check int) "pending drained" 0
            (Graph.pending_reads d + Graph.edge_pending_writes e);
          Alcotest.(check int) "no buffers held" 0 (Graph.pinned_blocks d);
          n
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "whole file" (256 * 1024) moved

let test_data_verified_end_to_end () =
  List.iter
    (fun disk ->
      let ok =
        with_machine ~disk (fun s ->
            (match Graph.wait (fst (start_file_splice s)) with
             | Ok _ -> ()
             | Error e -> Alcotest.fail e);
            true)
      in
      Alcotest.(check bool) "splice ran" true ok)
    [ `Ram; `Rz56; `Rz58 ]

let test_verify_via_read_path () =
  (* End-to-end: splice then read the destination through the normal FS
     path and compare with the pattern. *)
  let s = Experiments.make_setup ~disk:`Rz58 ~file_bytes:(128 * 1024) () in
  Experiments.cold_caches s;
  let m = s.Experiments.machine in
  let _p =
    Machine.spawn m ~name:"driver" (fun () ->
        let d, _ = start_file_splice s in
        match Graph.wait d with Ok _ -> () | Error e -> failwith e)
  in
  Machine.run m;
  Alcotest.(check bool) "pattern intact" true (verify_runs s)

let test_partial_size () =
  let moved =
    with_machine (fun s ->
        let d, _ = start_file_splice ~size:40_000 s in
        Alcotest.(check int) "resolved size" 40_000 (Graph.total_bytes d);
        match Graph.wait d with Ok n -> n | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "exact partial size (non-block multiple)" 40_000 moved

let test_eof_size_resolution () =
  with_machine (fun s ->
      let d, _ = start_file_splice ~size:Splice.eof s in
      Alcotest.(check int) "resolved to file size" (256 * 1024)
        (Graph.total_bytes d);
      ignore (Graph.wait d))

let test_oversized_request_clips () =
  let moved =
    with_machine (fun s ->
        let d, _ = start_file_splice ~size:(10 * 1024 * 1024) s in
        match Graph.wait d with Ok n -> n | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int) "clipped at EOF" (256 * 1024) moved

let test_zero_size_completes_immediately () =
  with_machine (fun s ->
      let d, _ = start_file_splice ~size:0 s in
      Alcotest.(check bool) "already done" true (Graph.state d = Graph.Completed);
      Alcotest.(check int) "zero moved" 0 (Graph.bytes_delivered d))

let test_watermark_bounds () =
  with_machine ~disk:`Rz56 (fun s ->
      let config = Flowctl.default in
      let d, e = start_file_splice ~config s in
      (match Graph.wait d with Ok _ -> () | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "peak reads bounded" true
        (Graph.peak_pending_reads d <= Flowctl.max_in_flight config);
      Alcotest.(check bool) "read pipeline used" true
        (Graph.peak_pending_reads d >= 2);
      Alcotest.(check bool) "peak writes bounded" true
        (Graph.edge_peak_pending_writes e
        <= Flowctl.max_in_flight config + config.Flowctl.write_hi))

let test_lockstep_config () =
  with_machine (fun s ->
      let d, e = start_file_splice ~config:Flowctl.lockstep s in
      (match Graph.wait d with Ok _ -> () | Error e -> Alcotest.fail e);
      Alcotest.(check int) "one read at a time" 1 (Graph.peak_pending_reads d);
      Alcotest.(check int) "one write at a time" 1
        (Graph.edge_peak_pending_writes e))

let test_on_complete_fires_once () =
  with_machine (fun s ->
      let fires = ref 0 in
      let d, _ = start_file_splice s in
      Graph.on_complete d (fun _ -> incr fires);
      (match Graph.wait d with Ok _ -> () | Error e -> Alcotest.fail e);
      Alcotest.(check int) "exactly once" 1 !fires;
      (* Late registration fires immediately. *)
      Graph.on_complete d (fun _ -> incr fires);
      Alcotest.(check int) "immediate for finished" 2 !fires)

(* Dedicated error rig with direct access to the concrete disks, at
   cluster bound [max_cluster]. No buffer may be left busy. *)
let error_rig ~max_cluster ~poison () =
  let config = { Config.decstation_5000_200 with Config.max_cluster } in
  let m = Machine.create ~config () in
  let d0 = Machine.make_drive m ~name:"disk0" ~kind:`Rz58 () in
  let d1 = Machine.make_drive m ~name:"disk1" ~kind:`Rz58 () in
  let disk0 = match d0 with Machine.Scsi d -> d | Machine.Ram _ -> assert false in
  let disk1 = match d1 with Machine.Scsi d -> d | Machine.Ram _ -> assert false in
  let outcome = ref None in
  let _p =
    Machine.spawn m ~name:"driver" (fun () ->
        let fs0 = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d0) ~ninodes:16 in
        let fs1 = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d1) ~ninodes:16 in
        let src = Fs.create_file fs0 "/data" in
        let buf = Bytes.create 8192 in
        for i = 0 to 15 do
          Programs.fill_pattern buf ~file_off:(i * 8192);
          ignore (Fs.write fs0 src ~off:(i * 8192) ~len:8192 buf ~pos:0)
        done;
        Fs.sync fs0;
        Kpath_buf.Cache.invalidate_dev (Machine.cache m) (Machine.blkdev d0);
        let dst = Fs.create_file fs1 "/copy" in
        poison ~fs0 ~fs1 ~src ~dst ~disk0 ~disk1;
        let d, _ =
          file_splice m ~fs:fs0 ~ino:src (Endpoint.dst_file fs1 dst ())
        in
        outcome := Some (Graph.wait d))
  in
  Machine.run m;
  Kpath_buf.Cache.check_invariants (Machine.cache m);
  Alcotest.(check int)
    (Printf.sprintf "max_cluster %d: no busy buffers" max_cluster)
    0
    (Kpath_buf.Cache.busy_count (Machine.cache m));
  !outcome

(* Each error kind aborts the splice with the device's own message,
   whether the failing block moves alone or inside a cluster. *)
let check_aborts ~max_cluster ~reason = function
  | Some (Error got) ->
    Alcotest.(check string)
      (Printf.sprintf "max_cluster %d: device message" max_cluster)
      reason got
  | Some (Ok _) -> Alcotest.fail "expected abort"
  | None -> Alcotest.fail "splice never finished"

let test_read_error_aborts_rig () =
  List.iter
    (fun max_cluster ->
      error_rig ~max_cluster ()
        ~poison:(fun ~fs0 ~fs1:_ ~src ~dst:_ ~disk0 ~disk1:_ ->
          let phys = Option.get (Fs.bmap fs0 src 8) in
          Disk.inject_error disk0 ~blkno:phys)
      |> check_aborts ~max_cluster ~reason:"disk0: hard error")
    [ 1; 8 ]

let test_write_error_aborts_rig () =
  List.iter
    (fun max_cluster ->
      error_rig ~max_cluster ()
        ~poison:(fun ~fs0:_ ~fs1 ~src:_ ~dst ~disk0:_ ~disk1 ->
          (* Map the destination to find a physical block to poison. *)
          let phys = Fs.bmap_alloc fs1 dst 4 ~zero:false in
          Disk.inject_error disk1 ~blkno:phys)
      |> check_aborts ~max_cluster ~reason:"disk1: hard error")
    [ 1; 8 ]

let test_abort_midway () =
  with_machine ~disk:`Rz56 (fun s ->
      let m = s.Experiments.machine in
      let d, _ = start_file_splice s in
      ignore
        (Engine.schedule_after (Machine.engine m) (Time.ms 50) (fun () ->
             Graph.abort d ~reason:"caller interrupt"));
      (match Graph.wait d with
       | Error "caller interrupt" -> ()
       | Error other -> Alcotest.failf "unexpected reason %s" other
       | Ok _ -> Alcotest.fail "expected abort");
      Alcotest.(check bool) "partial progress" true
        (Graph.bytes_delivered d < 256 * 1024);
      Alcotest.(check int) "buffers drained" 0 (Graph.pinned_blocks d);
      (* Abort is idempotent. *)
      Graph.abort d ~reason:"again")

(* An aborted splice finishes only once it has drained: [wait] called
   just after the abort returns with no request pending, no buffer busy
   and the destination drive idle, although the abort came with the last
   read still in flight and a write request queued on that drive that
   outlasts it. *)
let test_abort_drains_before_wait () =
  with_machine ~disk:`Rz56 (fun s ->
      let m = s.Experiments.machine in
      let engine = Machine.engine m in
      let dst_disk =
        match s.Experiments.drives with
        | [ _; Machine.Scsi d ] -> d
        | _ -> Alcotest.fail "expected two SCSI drives"
      in
      let d, e = start_file_splice s in
      let at_abort = ref (0, 0) in
      ignore
        (Engine.schedule_after engine (Time.ms 195) (fun () ->
             at_abort := (Graph.pending_reads d, Graph.edge_pending_writes e);
             Graph.abort d ~reason:"caller interrupt"));
      Process.block "sleep" (fun waker ->
          ignore
            (Engine.schedule_after engine
               (Time.add (Time.ms 195) (Time.us 1))
               waker));
      (match Graph.wait d with
       | Error "caller interrupt" -> ()
       | Error other -> Alcotest.failf "unexpected reason %s" other
       | Ok _ -> Alcotest.fail "expected abort");
      Alcotest.(check (pair int int)) "a read and a write in flight at the abort"
        (1, 1) !at_abort;
      Alcotest.(check int) "no read pending" 0 (Graph.pending_reads d);
      Alcotest.(check int) "no write pending" 0 (Graph.edge_pending_writes e);
      Alcotest.(check bool) "destination drive idle" false
        (Disk.busy dst_disk);
      Alcotest.(check int) "no buffer busy" 0
        (Kpath_buf.Cache.busy_count (Machine.cache m)))

let test_sparse_source_rejected () =
  with_machine (fun s ->
      let m = s.Experiments.machine in
      let src_fs, _, dst_fs, dst_ino = file_endpoints s in
      let sparse = Fs.create_file src_fs "/sparse" in
      ignore (Fs.bmap_alloc src_fs sparse 4 ~zero:true);
      sparse.Inode.size <- 5 * Fs.block_size src_fs;
      Alcotest.check_raises "sparse"
        (Fs_error.Error (Fs_error.Einval "splice: sparse source")) (fun () ->
          ignore
            (file_splice m ~fs:src_fs ~ino:sparse
               (Endpoint.dst_file dst_fs dst_ino ()))))

(* A connection closed before the splice starts: the sink refuses the
   first block, and the splice aborts with the stream's message once its
   other blocks have drained. *)
let with_closed_tcp m k =
  let net = Netif.create_net (Machine.engine m) in
  let a = Netif.attach net ~name:"a" ~intr:(Machine.intr m) () in
  let b = Netif.attach net ~name:"b" ~intr:(Machine.intr m) () in
  let l = Tcp.listen b ~port:80 () in
  let _srv =
    Machine.spawn m ~name:"tcp-server" (fun () ->
        let c = Tcp.accept l in
        let buf = Bytes.create 4096 in
        while Tcp.recv c buf ~pos:0 ~len:4096 > 0 do () done)
  in
  let c = Tcp.connect a ~port:1 ~dst:{ Tcp.a_if = Netif.id b; a_port = 80 } () in
  Tcp.close c;
  k c

let test_closed_tcp_sink_aborts () =
  with_machine (fun s ->
      let m = s.Experiments.machine in
      let src_fs, src_ino, _, _ = file_endpoints s in
      with_closed_tcp m (fun conn ->
          let d, e =
            file_splice m ~fs:src_fs ~ino:src_ino (Endpoint.Dst_tcp conn)
          in
          (match Graph.wait d with
           | Error reason ->
             Alcotest.(check string) "stream message"
               "tcp sink: Tcp.send_view: closed connection" reason
           | Ok _ -> Alcotest.fail "expected the closed sink to abort");
          Alcotest.(check int) "no write pending" 0 (Graph.edge_pending_writes e);
          Alcotest.(check int) "no buffers held" 0 (Graph.pinned_blocks d)))

let test_file_offsets () =
  with_machine (fun s ->
      let m = s.Experiments.machine in
      let src_fs, src_ino, dst_fs, dst_ino = file_endpoints s in
      (* Copy the second half of the file. *)
      let bs = Fs.block_size src_fs in
      let half_blocks = 256 * 1024 / bs / 2 in
      let d, _ =
        file_splice m ~off_blocks:half_blocks ~fs:src_fs ~ino:src_ino
          (Endpoint.dst_file dst_fs dst_ino ())
      in
      (match Graph.wait d with
       | Ok n -> Alcotest.(check int) "half the file" (128 * 1024) n
       | Error e -> Alcotest.fail e);
      (* Check a byte: dst offset 0 == src offset 128K. *)
      let out = Bytes.create 1 in
      ignore (Fs.read dst_fs dst_ino ~off:0 ~len:1 out ~pos:0);
      Alcotest.(check char) "shifted contents"
        (Programs.pattern_byte (128 * 1024))
        (Bytes.get out 0))

let test_file_to_chardev () =
  with_machine ~file_bytes:(64 * 1024) (fun s ->
      let m = s.Experiments.machine in
      let cd =
        Chardev.create ~name:"dac" ~drain_rate:1e6 ~fifo_capacity:(32 * 1024)
          ~engine:(Machine.engine m) ~intr:(Machine.intr m) ()
      in
      let src_fs, src_ino, _, _ = file_endpoints s in
      let d, _ =
        file_splice m ~fs:src_fs ~ino:src_ino (Endpoint.Dst_chardev cd)
      in
      (match Graph.wait d with
       | Ok n -> Alcotest.(check int) "all accepted" (64 * 1024) n
       | Error e -> Alcotest.fail e);
      (* Wait for the FIFO to play out. *)
      Sched.sleep (Machine.sched m) (Time.of_sec_f 0.1);
      Alcotest.(check int) "all played" (64 * 1024) (Chardev.consumed cd);
      (* Content check against the pattern. *)
      let captured = Chardev.captured cd in
      let ok = ref true in
      String.iteri
        (fun i c -> if c <> Programs.pattern_byte i then ok := false)
        captured;
      Alcotest.(check bool) "DAC heard the pattern" true !ok)

let test_socket_to_socket () =
  let m = Machine.create () in
  let net = Netif.create_net (Machine.engine m) in
  let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
  let stub = Netif.attach net ~name:"stub" ~intr:Util.free_intr () in
  let src_sock = Udp.create nif ~port:10 () in
  let out_sock = Udp.create nif ~port:11 () in
  let sink = Udp.create stub ~port:12 () in
  let remote = Udp.create stub ~port:13 () in
  let received = ref [] in
  Udp.set_upcall sink
    (Some (fun dg -> received := Bytes.to_string dg.Udp.d_payload :: !received));
  let d =
    Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_socket src_sock)
      ~dst:(Endpoint.Dst_socket { sock = out_sock; dst = Udp.addr sink })
      ~size:20 ()
  in
  (* Two 10-byte datagrams complete the 20-byte splice. *)
  Udp.sendto remote ~dst:(Udp.addr src_sock) (Bytes.of_string "helloworld");
  Udp.sendto remote ~dst:(Udp.addr src_sock) (Bytes.of_string "0123456789");
  Udp.sendto remote ~dst:(Udp.addr src_sock) (Bytes.of_string "ignored...");
  Machine.run m;
  Alcotest.(check bool) "completed" true (Splice.state d = Splice.Completed);
  Alcotest.(check int) "moved exactly" 20 (Splice.bytes_moved d);
  Alcotest.(check (list string)) "forwarded in order"
    [ "helloworld"; "0123456789" ] (List.rev !received)

let test_file_to_udp_socket () =
  let m = Machine.create () in
  let net = Netif.create_net ~bandwidth:10e6 (Machine.engine m) in
  let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
  let stub = Netif.attach net ~name:"stub" ~intr:Util.free_intr () in
  let out_sock = Udp.create nif ~port:50 () in
  let sink = Udp.create stub ~port:51 () in
  let received = Buffer.create 1024 in
  Udp.set_upcall sink (Some (fun dg -> Buffer.add_bytes received dg.Udp.d_payload));
  let drive = Machine.make_drive m ~name:"d0" ~kind:`Ram () in
  let total = 100_000 in
  let _p =
    Machine.spawn m ~name:"driver" (fun () ->
        let fs = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive) ~ninodes:8 in
        let f = Fs.create_file fs "/stream" in
        let buf = Bytes.create 8192 in
        let rec fill off =
          if off < total then begin
            let n = min 8192 (total - off) in
            Programs.fill_pattern buf ~file_off:off;
            ignore (Fs.write fs f ~off ~len:n buf ~pos:0);
            fill (off + n)
          end
        in
        fill 0;
        Fs.sync fs;
        Kpath_buf.Cache.invalidate_dev (Machine.cache m) (Machine.blkdev drive);
        let d, _ =
          file_splice m ~fs ~ino:f
            (Endpoint.Dst_socket { sock = out_sock; dst = Udp.addr sink })
        in
        match Graph.wait d with
        | Ok n -> Alcotest.(check int) "sent everything" total n
        | Error e -> Alcotest.fail e)
  in
  Machine.run m;
  Alcotest.(check int) "received everything" total (Buffer.length received);
  let data = Buffer.to_bytes received in
  let ok = ref true in
  Bytes.iteri (fun i c -> if c <> Programs.pattern_byte i then ok := false) data;
  Alcotest.(check bool) "in order and intact" true !ok;
  (* Endpoint descriptions render. *)
  Alcotest.(check bool) "describe" true
    (Util.contains (Endpoint.describe_sink (Endpoint.Dst_socket { sock = out_sock; dst = Udp.addr sink })) "udp")

(* A burst of four 1000-byte datagrams into a 2 KB FIFO that drains at
   1 KB/s: the first two fit, the third fits in part and the fourth not
   at all. The pump forwards every datagram and counts the two its sink
   refused in [splice.dgram_drops]. *)
let test_dgram_drops_counted () =
  let m = Machine.create () in
  let net = Netif.create_net (Machine.engine m) in
  let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
  let stub = Netif.attach net ~name:"stub" ~intr:Util.free_intr () in
  let src_sock = Udp.create nif ~port:20 () in
  let remote = Udp.create stub ~port:21 () in
  let cd =
    Chardev.create ~name:"dac" ~drain_rate:1000.0 ~fifo_capacity:2048
      ~engine:(Machine.engine m) ~intr:(Machine.intr m) ()
  in
  let d =
    Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_socket src_sock)
      ~dst:(Endpoint.Dst_chardev cd) ~size:4000 ()
  in
  for _ = 1 to 4 do
    Udp.sendto remote ~dst:(Udp.addr src_sock) (Bytes.make 1000 'd')
  done;
  Machine.run ~until:(Time.ms 100) m;
  let stats = Splice.ctx_stats (Machine.splice_ctx m) in
  Alcotest.(check bool) "completed" true (Splice.state d = Splice.Completed);
  Alcotest.(check int) "forwarded" 4 (Stats.get stats "splice.dgrams_forwarded");
  Alcotest.(check int) "refused by the sink" 2
    (Stats.get stats "splice.dgram_drops")

let test_release_detaches_dgram_source () =
  let m = Machine.create () in
  let net = Netif.create_net (Machine.engine m) in
  let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
  let stub = Netif.attach net ~name:"stub" ~intr:Util.free_intr () in
  let src_sock = Udp.create nif ~port:40 () in
  let out_sock = Udp.create nif ~port:41 () in
  let sink = Udp.create stub ~port:42 () in
  let remote = Udp.create stub ~port:43 () in
  let d =
    Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_socket src_sock)
      ~dst:(Endpoint.Dst_socket { sock = out_sock; dst = Udp.addr sink })
      ~size:10 ()
  in
  Udp.sendto remote ~dst:(Udp.addr src_sock) (Bytes.create 10);
  Machine.run m;
  Alcotest.(check bool) "done" true (Splice.state d = Splice.Completed);
  Splice.release d;
  (* After release, arriving datagrams queue on the socket again. *)
  Udp.sendto remote ~dst:(Udp.addr src_sock) (Bytes.create 7);
  Machine.run m;
  Alcotest.(check int) "queued, not forwarded" 1 (Udp.pending src_sock)

let test_framebuffer_to_socket () =
  let m = Machine.create () in
  let net = Netif.create_net ~bandwidth:10e6 (Machine.engine m) in
  let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
  let stub = Netif.attach net ~name:"stub" ~intr:Util.free_intr () in
  let out_sock = Udp.create nif ~port:20 () in
  let sink = Udp.create stub ~port:21 () in
  let bytes_seen = ref 0 in
  let reassembled = Buffer.create 1024 in
  Udp.set_upcall sink
    (Some
       (fun dg ->
         bytes_seen := !bytes_seen + Bytes.length dg.Udp.d_payload;
         Buffer.add_bytes reassembled dg.Udp.d_payload));
  let fb =
    Framebuffer.create ~name:"fb" ~frame_bytes:4096 ~frames_per_sec:30.0
      ~engine:(Machine.engine m) ()
  in
  let d =
    Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_framebuffer fb)
      ~dst:(Endpoint.Dst_socket { sock = out_sock; dst = Udp.addr sink })
      ~size:(3 * 4096) ()
  in
  Machine.run ~until:(Time.sec 1) m;
  Alcotest.(check bool) "done" true (Splice.state d = Splice.Completed);
  Alcotest.(check int) "three frames" (3 * 4096) !bytes_seen;
  (* First frame's bytes match the deterministic pattern. *)
  let frame0 = Framebuffer.frame_pattern ~seq:0 ~size:4096 in
  Alcotest.(check bytes) "frame 0 intact" frame0
    (Bytes.of_string (String.sub (Buffer.contents reassembled) 0 4096));
  Framebuffer.stop fb

let recording_rig ~rate ~size ~k =
  let m = Machine.create () in
  let drive = Machine.make_drive m ~name:"d0" ~kind:`Rz58 () in
  let mic =
    Micdev.create ~name:"mic0" ~rate ~engine:(Machine.engine m)
      ~intr:(Machine.intr m) ()
  in
  let _p =
    Machine.spawn m ~name:"recorder" (fun () ->
        let fs = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive) ~ninodes:8 in
        let f = Fs.create_file fs "/take1" in
        let d =
          Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_mic mic)
            ~dst:(Endpoint.dst_file fs f ()) ~size ()
        in
        let r = Splice.wait d in
        k fs f d r)
  in
  Machine.run ~until:(Time.sec 300) m;
  Kpath_buf.Cache.check_invariants (Machine.cache m);
  Micdev.stop mic

let test_recording_splice () =
  (* 96,000 bytes at 64 KB/s: the disk easily keeps up, so the recording
     is gapless and matches the device's sample pattern exactly. *)
  let checked = ref false in
  recording_rig ~rate:64_000.0 ~size:96_000 ~k:(fun fs f d r ->
      (match r with
       | Ok n -> Alcotest.(check int) "whole take" 96_000 n
       | Error e -> Alcotest.fail e);
      Alcotest.(check int) "no overruns" 0 (Splice.overruns d);
      Alcotest.(check int) "file size" 96_000 f.Inode.size;
      let out = Bytes.create 96_000 in
      let n = Fs.read fs f ~off:0 ~len:96_000 out ~pos:0 in
      Alcotest.(check int) "read back" 96_000 n;
      Alcotest.(check bytes) "gapless samples"
        (Micdev.sample_pattern ~off:0 ~len:96_000)
        out;
      Alcotest.(check (list string)) "fsck" [] (Fs.fsck fs);
      checked := true);
  Alcotest.(check bool) "checks ran" true !checked

let test_recording_overrun () =
  (* A device far faster than the disk: the splice must survive, drop
     samples (overruns) rather than buffer unboundedly, and still fill
     the requested take. *)
  let checked = ref false in
  recording_rig ~rate:20e6 ~size:(512 * 1024) ~k:(fun fs _f d r ->
      (match r with
       | Ok n -> Alcotest.(check int) "take filled" (512 * 1024) n
       | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "overruns recorded" true (Splice.overruns d > 0);
      Alcotest.(check (list string)) "fsck" [] (Fs.fsck fs);
      checked := true);
  Alcotest.(check bool) "checks ran" true !checked

let test_recording_write_error () =
  (* A device error on a destination block aborts the recording with the
     device's message once its other writes have drained. *)
  let checked = ref false in
  let m = Machine.create () in
  let drive = Machine.make_drive m ~name:"d0" ~kind:`Rz58 () in
  let disk = match drive with Machine.Scsi d -> d | Machine.Ram _ -> assert false in
  let mic =
    Micdev.create ~name:"mic0" ~rate:64_000.0 ~engine:(Machine.engine m)
      ~intr:(Machine.intr m) ()
  in
  let _p =
    Machine.spawn m ~name:"recorder" (fun () ->
        let fs = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive) ~ninodes:8 in
        let f = Fs.create_file fs "/take1" in
        let d =
          Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_mic mic)
            ~dst:(Endpoint.dst_file fs f ()) ~size:96_000 ()
        in
        Disk.inject_error disk ~blkno:(Option.get (Fs.bmap fs f 3));
        (match Splice.wait d with
         | Error reason ->
           Alcotest.(check string) "device message" "d0: hard error" reason
         | Ok _ -> Alcotest.fail "expected the write error to abort");
        Alcotest.(check int) "no write pending" 0 (Splice.pending_writes d);
        checked := true)
  in
  Machine.run ~until:(Time.sec 300) m;
  Micdev.stop mic;
  Alcotest.(check bool) "checks ran" true !checked;
  Alcotest.(check int) "no buffer busy" 0
    (Kpath_buf.Cache.busy_count (Machine.cache m));
  Kpath_buf.Cache.check_invariants (Machine.cache m)

let test_recording_einval () =
  let m = Machine.create () in
  let mic =
    Micdev.create ~name:"mic0" ~rate:8000.0 ~engine:(Machine.engine m)
      ~intr:(Machine.intr m) ()
  in
  let drive = Machine.make_drive m ~name:"d0" ~kind:`Ram () in
  let _p =
    Machine.spawn m ~name:"t" (fun () ->
        let fs = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive) ~ninodes:8 in
        let f = Fs.create_file fs "/x" in
        Alcotest.check_raises "unbounded capture"
          (Fs_error.Error
             (Fs_error.Einval "splice: device capture requires a bounded size"))
          (fun () ->
            ignore
              (Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_mic mic)
                 ~dst:(Endpoint.dst_file fs f ()) ~size:Splice.eof ())))
  in
  Machine.run m

let test_unsupported_combinations () =
  let m = Machine.create () in
  let net = Netif.create_net (Machine.engine m) in
  let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
  let sock = Udp.create nif ~port:30 () in
  let fb =
    Framebuffer.create ~name:"fb" ~frame_bytes:64 ~frames_per_sec:1.0
      ~engine:(Machine.engine m) ()
  in
  (* A file source runs as a splice graph, never through [Splice]. *)
  (try
     ignore
       (Splice.start (Machine.splice_ctx m)
          ~src:(Endpoint.Src_file { fs = Obj.magic (); ino = Obj.magic (); off_blocks = 0 })
          ~dst:(Endpoint.Dst_chardev (Obj.magic ()))
          ~size:10 ());
     Alcotest.fail "file source accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_socket sock)
          ~dst:(Endpoint.Dst_file { fs = Obj.magic (); ino = Obj.magic (); off_blocks = 0 })
          ~size:10 ());
     Alcotest.fail "socket-to-file accepted"
   with Invalid_argument _ -> ());
  try
    ignore
      (Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_framebuffer fb)
         ~dst:(Endpoint.Dst_chardev (Obj.magic ())) ~size:10 ());
    Alcotest.fail "framebuffer-to-chardev accepted"
  with Invalid_argument _ -> ()

(* The write side hands the destination's store the source buffers'
   own areas (§5.4), sealed. Block 0 of the source is a dirty cache hit
   with a private area when the splice reads it; block 1 comes from the
   device. Both destination blocks then read back as the very areas the
   source buffers hold, and overwriting the source afterwards leaves the
   destination's bytes as they were: the writer takes a private area. *)
let test_write_shares_source_areas () =
  with_machine (fun s ->
      let m = s.Experiments.machine in
      let cache = Machine.cache m in
      let src_fs, src_ino, dst_fs, dst_ino = file_endpoints s in
      let bs = Fs.block_size src_fs in
      let block0 = Bytes.create bs in
      Programs.fill_pattern block0 ~file_off:0;
      ignore (Fs.write src_fs src_ino ~off:0 ~len:bs block0 ~pos:0);
      (match Graph.wait (fst (start_file_splice s)) with
       | Ok _ -> ()
       | Error e -> Alcotest.fail e);
      let area fs ino lblk =
        let b =
          Kpath_buf.Cache.bread cache (Fs.dev fs)
            (Option.get (Fs.bmap fs ino lblk))
        in
        let a = b.Kpath_buf.Buf.b_data in
        Kpath_buf.Cache.brelse cache b;
        a
      in
      let dst0 = area dst_fs dst_ino 0 in
      List.iter
        (fun lblk ->
          Alcotest.(check bool)
            (Printf.sprintf "block %d stored by reference" lblk)
            true
            (area src_fs src_ino lblk == area dst_fs dst_ino lblk))
        [ 0; 1 ];
      ignore
        (Fs.write src_fs src_ino ~off:0 ~len:bs (Bytes.make bs 'x') ~pos:0);
      Fs.sync src_fs;
      Experiments.cold_caches s;
      Alcotest.(check int) "the shared area kept its bytes" 0
        (Programs.pattern_mismatches dst0 ~pos:0 ~len:bs ~file_off:0);
      Alcotest.(check int) "and so does the destination" 0
        (Programs.pattern_mismatches (area dst_fs dst_ino 0) ~pos:0 ~len:bs
           ~file_off:0);
      Alcotest.(check bytes) "while the source changed" (Bytes.make bs 'x')
        (area src_fs src_ino 0))

let test_same_disk_splice () =
  (* Source and destination files on one drive/filesystem: the head
     thrashes but the data must still arrive intact. *)
  let meas =
    Experiments.measure_copy ~mode:`Scp ~disk:`Rz56 ~file_bytes:(128 * 1024)
      ~same_disk:true ()
  in
  Alcotest.(check bool) "verified" true meas.Experiments.cm_verified

let test_splice_stats_counted () =
  with_machine (fun s ->
      let m = s.Experiments.machine in
      let before = Stats.get (Splice.ctx_stats (Machine.splice_ctx m)) "splice.started" in
      let d, _ = start_file_splice s in
      ignore (Graph.wait d);
      let stats = Splice.ctx_stats (Machine.splice_ctx m) in
      let lat = Stats.histogram stats "splice.block_latency_us" in
      Alcotest.(check int) "latency sample per block" 32 (Histogram.count lat);
      Alcotest.(check bool) "latencies positive" true
        (match Histogram.min_value lat with Some v -> v > 0 | None -> false);
      Alcotest.(check int) "started" (before + 1) (Stats.get stats "splice.started");
      Alcotest.(check bool) "reads counted" true
        (Stats.get stats "splice.reads_issued" > 0);
      Alcotest.(check bool) "writes counted" true
        (Stats.get stats "splice.writes_issued" > 0);
      Alcotest.(check bool) "completed" true (Stats.get stats "splice.completed" > 0))

let test_buffer_shortage_retry () =
  (* A cache far smaller than the watermark burst forces the paper's
     `Busy path: reads are retried off the callout list until buffers
     free up, and the transfer still completes intact. *)
  let e = Kpath_sim.Engine.create () in
  let sched = Kpath_proc.Sched.create e in
  let intr ~service fn = Kpath_proc.Sched.interrupt sched ~service fn in
  let disk =
    Kpath_dev.Disk.create ~name:"d0" ~geometry:Kpath_dev.Disk.rz58
      ~block_size:4096 ~nblocks:256 ~intr_service:(Kpath_sim.Time.us 60)
      ~engine:e ~intr ()
  in
  let disk2 =
    Kpath_dev.Disk.create ~name:"d1" ~geometry:Kpath_dev.Disk.rz58
      ~block_size:4096 ~nblocks:256 ~intr_service:(Kpath_sim.Time.us 60)
      ~engine:e ~intr ()
  in
  let cache = Kpath_buf.Cache.create ~block_size:4096 ~nbufs:4 () in
  let callout = Kpath_sim.Callout.create e in
  let ctx =
    Graph.make_ctx
      (Splice.make_ctx ~engine:e ~callout ~cache ~intr
         ~handler_cost:(Kpath_sim.Time.us 25) ())
      ~vm_insn_cost:Kpath_sim.Time.zero
  in
  let outcome = ref None in
  let retries = ref 0 in
  let _p =
    Kpath_proc.Sched.spawn sched ~name:"driver" (fun () ->
        let fs0 = Fs.mkfs ~cache (Kpath_dev.Disk.blkdev disk) ~ninodes:8 in
        let fs1 = Fs.mkfs ~cache (Kpath_dev.Disk.blkdev disk2) ~ninodes:8 in
        let src = Fs.create_file fs0 "/s" in
        let buf = Bytes.create 4096 in
        for i = 0 to 31 do
          Programs.fill_pattern buf ~file_off:(i * 4096);
          ignore (Fs.write fs0 src ~off:(i * 4096) ~len:4096 buf ~pos:0)
        done;
        Fs.sync fs0;
        Kpath_buf.Cache.invalidate_dev cache (Kpath_dev.Disk.blkdev disk);
        let dst = Fs.create_file fs1 "/d" in
        let d =
          Graph.create ctx ~naming:Graph.splice_naming ~fs:fs0 ~ino:src ()
        in
        ignore (Graph.connect d (Endpoint.dst_file fs1 dst ()));
        Graph.start d;
        outcome := Some (Graph.wait d);
        retries := Kpath_sim.Stats.get (Graph.ctx_stats ctx) "splice.retries";
        (* Verify. *)
        let out = Bytes.create 4096 in
        let ok = ref true in
        for i = 0 to 31 do
          ignore (Fs.read fs1 dst ~off:(i * 4096) ~len:4096 out ~pos:0);
          for j = 0 to 4095 do
            if Bytes.get out j <> Programs.pattern_byte ((i * 4096) + j) then
              ok := false
          done
        done;
        Alcotest.(check bool) "intact under buffer famine" true !ok)
  in
  Kpath_sim.Engine.run e;
  Kpath_proc.Sched.check_deadlock sched;
  Kpath_buf.Cache.check_invariants cache;
  (match !outcome with
   | Some (Ok n) -> Alcotest.(check int) "all moved" (32 * 4096) n
   | Some (Error reason) -> Alcotest.fail reason
   | None -> Alcotest.fail "splice never finished");
  Alcotest.(check bool) "the retry path actually ran" true (!retries > 0)

let test_abort_chardev_sink () =
  (* Abort while blocks are parked in a slow DAC's writer queue. *)
  with_machine ~file_bytes:(64 * 1024) (fun s ->
      let m = s.Experiments.machine in
      let cd =
        Chardev.create ~name:"slow" ~drain_rate:1000.0 ~fifo_capacity:4096
          ~engine:(Machine.engine m) ~intr:(Machine.intr m) ()
      in
      let src_fs, src_ino, _, _ = file_endpoints s in
      let d, _ =
        file_splice m ~fs:src_fs ~ino:src_ino (Endpoint.Dst_chardev cd)
      in
      ignore
        (Engine.schedule_after (Machine.engine m) (Time.ms 100) (fun () ->
             Graph.abort d ~reason:"enough"));
      match Graph.wait d with
      | Error "enough" ->
        Alcotest.(check bool) "partial" true (Graph.bytes_delivered d < 64 * 1024)
      | Error other -> Alcotest.failf "unexpected: %s" other
      | Ok _ -> Alcotest.fail "expected abort")

(* Blocks a writer left in the cache hold private areas, unsealed, and a
   character device's writer queue reads them as its FIFO frees. An
   abort with such blocks queued returns from [wait] only once the
   device has taken every byte it was lent, so the writer that then
   overwrites the source cannot change what the device plays. *)
let test_abort_keeps_lent_areas () =
  with_machine ~file_bytes:(64 * 1024) (fun s ->
      let m = s.Experiments.machine in
      let src_fs, src_ino, _, _ = file_endpoints s in
      let block = Fs.block_size src_fs in
      let rewrite fill =
        let buf = Bytes.create block in
        for i = 0 to (64 * 1024 / block) - 1 do
          fill buf (i * block);
          ignore (Fs.write src_fs src_ino ~off:(i * block) ~len:block buf ~pos:0)
        done
      in
      rewrite (fun buf off -> Programs.fill_pattern buf ~file_off:off);
      let cd =
        Chardev.create ~name:"dac" ~drain_rate:1e5 ~fifo_capacity:4096
          ~engine:(Machine.engine m) ~intr:(Machine.intr m) ()
      in
      let d, e =
        file_splice m ~fs:src_fs ~ino:src_ino (Endpoint.Dst_chardev cd)
      in
      let writes_at_abort = ref 0 in
      ignore
        (Engine.schedule_after (Machine.engine m) (Time.ms 1) (fun () ->
             writes_at_abort := Graph.edge_pending_writes e;
             Graph.abort d ~reason:"enough"));
      (match Graph.wait d with
       | Error "enough" -> ()
       | Error other -> Alcotest.failf "unexpected: %s" other
       | Ok _ -> Alcotest.fail "expected abort");
      Alcotest.(check bool) "writes queued at the abort" true
        (!writes_at_abort > 1);
      Alcotest.(check int) "no write pending" 0 (Graph.edge_pending_writes e);
      rewrite (fun buf _ -> Bytes.fill buf 0 block '\xff');
      Sched.sleep (Machine.sched m) (Time.of_sec_f 1.0);
      let played = Chardev.captured cd in
      Alcotest.(check bool) "lent blocks played" true
        (String.length played > block);
      String.iteri
        (fun i c ->
          if c <> Programs.pattern_byte i then
            Alcotest.failf "byte %d played 0x%02x" i (Char.code c))
        played)

let test_concurrent_splices () =
  (* Two simultaneous splices over one shared buffer cache, different
     file pairs, both verified. *)
  let m = Machine.create () in
  let d0 = Machine.make_drive m ~name:"d0" ~kind:`Rz58 () in
  let d1 = Machine.make_drive m ~name:"d1" ~kind:`Rz58 () in
  let results = ref [] in
  let _p =
    Machine.spawn m ~name:"driver" (fun () ->
        let fs0 = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d0) ~ninodes:16 in
        let fs1 = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d1) ~ninodes:16 in
        let mkfile fs name seed blocks =
          let f = Fs.create_file fs name in
          let buf = Bytes.create 8192 in
          for i = 0 to blocks - 1 do
            Programs.fill_pattern buf ~file_off:(seed + (i * 8192));
            ignore (Fs.write fs f ~off:(i * 8192) ~len:8192 buf ~pos:0)
          done;
          f
        in
        let a = mkfile fs0 "/a" 0 24 in
        let b = mkfile fs0 "/b" 977 24 in
        let da = Fs.create_file fs1 "/ca" in
        let db = Fs.create_file fs1 "/cb" in
        Fs.sync fs0;
        Kpath_buf.Cache.invalidate_dev (Machine.cache m) (Machine.blkdev d0);
        let start src dst =
          fst (file_splice m ~fs:fs0 ~ino:src (Endpoint.dst_file fs1 dst ()))
        in
        let sa = start a da and sb = start b db in
        results := [ Graph.wait sa; Graph.wait sb ];
        (* Verify both destinations byte for byte. *)
        let check f seed blocks =
          let out = Bytes.create 8192 in
          let ok = ref true in
          for i = 0 to blocks - 1 do
            ignore (Fs.read fs1 f ~off:(i * 8192) ~len:8192 out ~pos:0);
            for j = 0 to 8191 do
              if Bytes.get out j <> Programs.pattern_byte (seed + (i * 8192) + j)
              then ok := false
            done
          done;
          !ok
        in
        Alcotest.(check bool) "A intact" true (check da 0 24);
        Alcotest.(check bool) "B intact" true (check db 977 24))
  in
  Machine.run m;
  Kpath_buf.Cache.check_invariants (Machine.cache m);
  match !results with
  | [ Ok na; Ok nb ] ->
    Alcotest.(check int) "A bytes" (24 * 8192) na;
    Alcotest.(check int) "B bytes" (24 * 8192) nb
  | _ -> Alcotest.fail "a splice failed"

let prop_splice_integrity =
  QCheck.Test.make ~name:"splice of random size/watermarks is byte-exact"
    ~count:25
    QCheck.(
      quad (int_range 1 (200 * 1024)) (int_range 1 4) (int_range 1 6)
        (int_range 1 6))
    (fun (size, lo, hi, burst) ->
      let config = Flowctl.make ~read_lo:lo ~write_hi:hi ~read_burst:burst in
      let s = Experiments.make_setup ~disk:`Ram ~file_bytes:(256 * 1024) () in
      Experiments.cold_caches s;
      let m = s.Experiments.machine in
      let verdict = ref false in
      let _p =
        Machine.spawn m ~name:"q" (fun () ->
            let src_fs, src_ino, dst_fs, dst_ino = file_endpoints s in
            let d, _ =
              file_splice m ~config ~size ~fs:src_fs ~ino:src_ino
                (Endpoint.dst_file dst_fs dst_ino ())
            in
            (match Graph.wait d with
             | Ok n when n = size ->
               (* Read back and compare. *)
               let out = Bytes.create 8192 in
               let ok = ref true in
               let off = ref 0 in
               while !off < size do
                 let want = min 8192 (size - !off) in
                 let n = Fs.read dst_fs dst_ino ~off:!off ~len:want out ~pos:0 in
                 if n <> want then ok := false
                 else
                   for j = 0 to n - 1 do
                     if Bytes.get out j <> Programs.pattern_byte (!off + j) then
                       ok := false
                   done;
                 off := !off + want
               done;
               verdict :=
                 !ok
                 && Graph.peak_pending_reads d <= Flowctl.max_in_flight config
             | Ok _ | Error _ -> verdict := false))
      in
      Machine.run m;
      !verdict)

let suite =
  [
    Alcotest.test_case "whole-file integrity" `Quick test_whole_file_integrity;
    Alcotest.test_case "all disk types" `Quick test_data_verified_end_to_end;
    Alcotest.test_case "read-path verification" `Quick test_verify_via_read_path;
    Alcotest.test_case "partial size" `Quick test_partial_size;
    Alcotest.test_case "EOF size" `Quick test_eof_size_resolution;
    Alcotest.test_case "oversized clips" `Quick test_oversized_request_clips;
    Alcotest.test_case "zero size" `Quick test_zero_size_completes_immediately;
    Alcotest.test_case "watermark bounds" `Quick test_watermark_bounds;
    Alcotest.test_case "lockstep config" `Quick test_lockstep_config;
    Alcotest.test_case "completion callback" `Quick test_on_complete_fires_once;
    Alcotest.test_case "read error aborts" `Quick test_read_error_aborts_rig;
    Alcotest.test_case "write error aborts" `Quick test_write_error_aborts_rig;
    Alcotest.test_case "abort midway" `Quick test_abort_midway;
    Alcotest.test_case "abort drains before wait" `Quick test_abort_drains_before_wait;
    Alcotest.test_case "sparse source rejected" `Quick test_sparse_source_rejected;
    Alcotest.test_case "block-aligned offsets" `Quick test_file_offsets;
    Alcotest.test_case "file to chardev" `Quick test_file_to_chardev;
    Alcotest.test_case "socket to socket" `Quick test_socket_to_socket;
    Alcotest.test_case "file to UDP socket" `Quick test_file_to_udp_socket;
    Alcotest.test_case "closed TCP sink aborts" `Quick test_closed_tcp_sink_aborts;
    Alcotest.test_case "dgram release" `Quick test_release_detaches_dgram_source;
    Alcotest.test_case "dgram drops counted" `Quick test_dgram_drops_counted;
    Alcotest.test_case "framebuffer to socket" `Quick test_framebuffer_to_socket;
    Alcotest.test_case "recording splice" `Quick test_recording_splice;
    Alcotest.test_case "recording overruns" `Quick test_recording_overrun;
    Alcotest.test_case "recording write error" `Quick test_recording_write_error;
    Alcotest.test_case "recording EINVAL" `Quick test_recording_einval;
    Alcotest.test_case "unsupported pairs" `Quick test_unsupported_combinations;
    Alcotest.test_case "same-disk splice" `Quick test_same_disk_splice;
    Alcotest.test_case "file write shares source areas" `Quick
      test_write_shares_source_areas;
    Alcotest.test_case "stats counted" `Quick test_splice_stats_counted;
    Alcotest.test_case "concurrent splices" `Quick test_concurrent_splices;
    Alcotest.test_case "buffer-shortage retry" `Quick test_buffer_shortage_retry;
    Alcotest.test_case "abort with chardev sink" `Quick test_abort_chardev_sink;
    Alcotest.test_case "abort keeps lent areas" `Quick test_abort_keeps_lent_areas;
    Util.qcheck prop_splice_integrity;
  ]
