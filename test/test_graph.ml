(* Splice graphs: fan-out aliasing, filters, backpressure and the
   release-exactly-once refcount discipline. *)

open Kpath_sim
open Kpath_proc
open Kpath_buf
open Kpath_fs
open Kpath_kernel
open Kpath_workloads
module Graph = Kpath_graph.Graph
module Endpoint = Kpath_core.Endpoint
module Vm = Kpath_vm.Vm
module Samples = Kpath_vm.Samples

let prog src =
  match Kpath_vm.Asm.load src with
  | Ok p -> p
  | Error e -> Alcotest.failf "test program rejected: %s" e

let block_size = 8192

(* Rig: machine with /src (patterned file) and /dst filesystems, cold
   caches; [body] runs in a process with the graph ctx at hand. After
   the run the cache must satisfy its invariants with nothing pinned. *)
let with_rig ?(disk = `Ram) ?(file_bytes = 256 * 1024) body =
  let s = Experiments.make_setup ~disk ~file_bytes () in
  Experiments.cold_caches s;
  let m = s.Experiments.machine in
  let result = ref None in
  let p =
    Machine.spawn m ~name:"graph-test" (fun () ->
        result := Some (body s m (Machine.graph_ctx m)))
  in
  Machine.run m;
  (match p.Process.exit_status with
   | Some (Process.Crashed e) -> raise e
   | _ -> ());
  Cache.check_invariants (Machine.cache m);
  Alcotest.(check int) "no pinned buffers left" 0
    (Cache.pinned_count (Machine.cache m));
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test body did not finish"

let src_file s =
  let m = s.Experiments.machine in
  let fs, rel = Option.get (Machine.resolve m s.Experiments.src_path) in
  (fs, Fs.lookup fs rel)

let dst_fs s =
  let m = s.Experiments.machine in
  fst (Option.get (Machine.resolve m "/dst"))

(* Read a destination file back through the normal FS path and check it
   carries the writer pattern (restarting at [seg_off] boundaries). *)
let check_pattern fs ino ~segments =
  let buf = Bytes.create block_size in
  List.iter
    (fun (file_off, seg_bytes) ->
      let bad = ref 0 in
      let rec go rel =
        if rel < seg_bytes then begin
          let len = min block_size (seg_bytes - rel) in
          let n = Fs.read fs ino ~off:(file_off + rel) ~len buf ~pos:0 in
          Alcotest.(check int) "read length" len n;
          for i = 0 to n - 1 do
            if Bytes.get buf i <> Programs.pattern_byte (rel + i) then incr bad
          done;
          go (rel + len)
        end
      in
      go 0;
      Alcotest.(check int) "corrupt bytes" 0 !bad)
    segments

let ok_exn = function Ok v -> v | Error e -> Alcotest.fail e

(* {1 Fan-out} *)

let test_fanout_to_files () =
  with_rig (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let sinks = List.init 3 (fun i -> Fs.create_file dfs (Printf.sprintf "/c%d" i)) in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let edges =
        List.map
          (fun ino -> Graph.connect g (Endpoint.dst_file dfs ino ()))
          sinks
      in
      Graph.start g;
      let total = ok_exn (Graph.wait g) in
      Alcotest.(check int) "three full copies" (3 * 256 * 1024) total;
      List.iter
        (fun e ->
          Alcotest.(check bool) "edge done" true (Graph.edge_state e = `Done);
          Alcotest.(check int) "per-edge bytes" (256 * 1024)
            (Graph.edge_delivered e))
        edges;
      (* The single-read invariant: one read per source block, however
         many edges consume it. *)
      let stats = Graph.ctx_stats ctx in
      Alcotest.(check int) "one read per block" (256 * 1024 / block_size)
        (Stats.get stats "graph.reads_issued" + Stats.get stats "graph.read_hits");
      Alcotest.(check bool) "blocks were aliased" true
        (Stats.get (Graph.ctx_stats ctx) "graph.blocks_aliased" > 0);
      Alcotest.(check int) "nothing left pinned" 0 (Graph.pinned_blocks g);
      (* Flush and verify every copy through the read path. *)
      List.iter (fun ino -> Fs.fsync dfs ino) sinks;
      List.iter
        (fun ino -> check_pattern dfs ino ~segments:[ (0, 256 * 1024) ])
        sinks)

let test_fanout_tcp_single_read_invariant () =
  (* The acceptance experiment: an 8 MB file to N simulated TCP clients
     issues the same number of device reads for N = 64 as for N = 1,
     and every client receives every byte. *)
  let run n =
    Experiments.measure_fanout ~clients:n ~file_bytes:(8 * 1024 * 1024)
      ~bandwidth:40e6 ()
  in
  let base = run 1 in
  Alcotest.(check bool) "N=1 verified" true base.Experiments.fo_verified;
  List.iter
    (fun n ->
      let r = run n in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d all clients complete and correct" n)
        true r.Experiments.fo_verified;
      Alcotest.(check int)
        (Printf.sprintf "N=%d issues no extra device reads" n)
        base.Experiments.fo_device_reads r.Experiments.fo_device_reads;
      Alcotest.(check int)
        (Printf.sprintf "N=%d leaks no pins" n)
        0 r.Experiments.fo_pinned_after)
    [ 8; 64 ]

(* {1 Filters} *)

let test_throttle_rate_validated () =
  with_rig (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let dst = Endpoint.dst_file dfs (Fs.create_file dfs "/out") () in
      List.iter
        (fun rate ->
          Alcotest.check_raises
            (Printf.sprintf "throttle %g" rate)
            (Invalid_argument "Graph.connect: throttle rate must be positive")
            (fun () ->
              ignore (Graph.connect g ~filters:[ Graph.Throttle rate ] dst)))
        [ Float.nan; 0.0; -1.0 ])

let expected_checksum ~file_bytes =
  let chunk = Bytes.create block_size in
  let nblocks = (file_bytes + block_size - 1) / block_size in
  let acc = ref 0 in
  for lblk = 0 to nblocks - 1 do
    Programs.fill_pattern chunk ~file_off:(lblk * block_size);
    let len = min block_size (file_bytes - (lblk * block_size)) in
    acc := !acc lxor Graph.block_checksum ~lblk chunk len
  done;
  !acc

let test_checksum_filter () =
  with_rig (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let c0 = Fs.create_file dfs "/c0" and c1 = Fs.create_file dfs "/c1" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let mk ino =
        Graph.connect g ~filters:[ Graph.Checksum ]
          (Endpoint.dst_file dfs ino ())
      in
      let e0 = mk c0 and e1 = mk c1 in
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      let expect = expected_checksum ~file_bytes:(256 * 1024) in
      Alcotest.(check (option int)) "edge 0 checksum" (Some expect)
        (Graph.edge_checksum e0);
      Alcotest.(check (option int)) "edge 1 checksum" (Some expect)
        (Graph.edge_checksum e1))

let test_tee_filter () =
  with_rig (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let c0 = Fs.create_file dfs "/c0" in
      let seen = ref 0 and bad = ref 0 and calls = ref 0 in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      ignore
        (Graph.connect g
           ~filters:
             [
               Graph.Tee
                 (fun data len ->
                   incr calls;
                   seen := !seen + len;
                   (* In-order single-edge pump: the tee observes the
                      stream sequentially. *)
                   for i = 0 to len - 1 do
                     if Bytes.get data i <> Programs.pattern_byte (!seen - len + i)
                     then incr bad
                   done);
             ]
           (Endpoint.dst_file dfs c0 ()));
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      Alcotest.(check int) "tee saw the whole stream" (256 * 1024) !seen;
      Alcotest.(check int) "tee data matches the pattern" 0 !bad;
      Alcotest.(check int) "one call per block" (256 * 1024 / block_size) !calls)

(* The most requests a graph has out (pending reads plus the slowest
   edge's pending writes) under the default watermarks: at most
   [Flowctl.max_in_flight] read requests are pending, and reads are
   issued only while every live edge has fewer than [write_hi] write
   requests pending. A request is one cluster of at most max_cluster
   blocks; a cache hit is a request of one block. *)
let flowctl_bound =
  let cfg = Kpath_core.Flowctl.default in
  Kpath_core.Flowctl.max_in_flight cfg + cfg.Kpath_core.Flowctl.write_hi - 1

let test_throttle_and_window () =
  (* One fast file edge, one edge throttled to a tenth of the pace: the
     slow edge's pending writes (a block its throttle holds is a write
     request of its own) reach its write watermark and stop the
     source's reads, so the held blocks (and so the buffer cache
     footprint) stay within the default watermarks' request bound, in
     clusters of at most max_cluster blocks, while the slow edge lags.
     The 1 MB source has more blocks than that bound: a throttle whose
     deferred blocks held no slot would let the reads run past it. *)
  let max_pinned = ref 0 and bound = ref 0 in
  with_rig ~file_bytes:(1024 * 1024) (fun s m ctx ->
      bound := flowctl_bound * (Machine.config m).Config.max_cluster;
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let fast = Fs.create_file dfs "/fast" and slow = Fs.create_file dfs "/slow" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let ef = Graph.connect g (Endpoint.dst_file dfs fast ()) in
      let es =
        Graph.connect g ~filters:[ Graph.Throttle 500_000.0 ]
          (Endpoint.dst_file dfs slow ())
      in
      let engine = Machine.engine m in
      let rec sample () =
        max_pinned := max !max_pinned (Graph.pinned_blocks g);
        if Graph.state g = Graph.Running then
          ignore (Engine.schedule_after engine (Time.us 500) sample)
      in
      sample ();
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      Alcotest.(check bool) "fast edge done" true (Graph.edge_state ef = `Done);
      Alcotest.(check bool) "slow edge done" true (Graph.edge_state es = `Done);
      Alcotest.(check int) "both full copies" (2 * 1024 * 1024)
        (Graph.bytes_delivered g);
      Fs.fsync dfs fast;
      Fs.fsync dfs slow;
      check_pattern dfs fast ~segments:[ (0, 1024 * 1024) ];
      check_pattern dfs slow ~segments:[ (0, 1024 * 1024) ]);
  Alcotest.(check bool)
    (Printf.sprintf "flow control bounds held blocks (max %d, bound %d)"
       !max_pinned !bound)
    true
    (!max_pinned <= !bound && !max_pinned > 0)

(* One cold RZ58 source fanned out to three file sinks, each edge under
   its own flow control: the source issues reads only as fast as the
   tightest edge allows (the minimum over the edges of
   [Flowctl.reads_to_issue]), so the lock-step edge paces the others.
   The timing and counts are pinned; any change to how the graph folds
   its edges' flow control must leave them exactly as they are. The
   time was re-recorded (1.314 s before) when watermark slots became
   read and write requests: the lock-step edge now allows one cluster
   in flight, not one block. *)
let test_per_edge_flow_control () =
  with_rig ~disk:`Rz58 (fun s m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let edges =
        List.mapi
          (fun i config ->
            let ino = Fs.create_file dfs (Printf.sprintf "/f%d" i) in
            Graph.connect g ~config (Endpoint.dst_file dfs ino ()))
          Kpath_core.Flowctl.
            [ lockstep; default; make ~read_lo:6 ~write_hi:10 ~read_burst:10 ]
      in
      let started = Machine.now m in
      let finished = ref Time.zero in
      Graph.on_complete g (fun _ -> finished := Machine.now m);
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      let stats = Graph.ctx_stats ctx in
      Alcotest.(check int) "completion time (ns)" 591_305_787
        (Time.to_ns (Time.diff !finished started));
      Alcotest.(check int) "reads issued" 32
        (Stats.get stats "graph.reads_issued");
      Alcotest.(check int) "retries" 0 (Stats.get stats "graph.retries");
      Alcotest.(check (list int)) "bytes per edge"
        [ 256 * 1024; 256 * 1024; 256 * 1024 ]
        (List.map Graph.edge_delivered edges))

(* {1 Abort and the release-exactly-once discipline} *)

let test_abort_edge_midstream () =
  with_rig ~file_bytes:(512 * 1024) (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let keep = Fs.create_file dfs "/keep" and cut = Fs.create_file dfs "/cut" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let e_cut = ref None in
      let blocks_seen = ref 0 in
      (* The tee rides the surviving edge and cuts the other one loose a
         third of the way through — mid-stream, deterministically, from
         interrupt context with shared blocks in flight. *)
      let ek =
        Graph.connect g
          ~filters:
            [
              Graph.Tee
                (fun _ _ ->
                  incr blocks_seen;
                  if !blocks_seen = 20 then
                    Graph.abort_edge g (Option.get !e_cut) ~reason:"client gone");
            ]
          (Endpoint.dst_file dfs keep ())
      in
      e_cut := Some (Graph.connect g (Endpoint.dst_file dfs cut ()));
      Graph.start g;
      let total = ok_exn (Graph.wait g) in
      Alcotest.(check bool) "graph completed despite the dead edge" true
        (Graph.state g = Graph.Completed);
      Alcotest.(check bool) "surviving edge done" true
        (Graph.edge_state ek = `Done);
      (match Graph.edge_state (Option.get !e_cut) with
       | `Dead reason -> Alcotest.(check string) "reason kept" "client gone" reason
       | _ -> Alcotest.fail "cut edge should be dead");
      Alcotest.(check int) "survivor delivered everything" (512 * 1024)
        (Graph.edge_delivered ek);
      Alcotest.(check bool) "total = survivor + partial victim" true
        (total >= 512 * 1024 && total < 2 * 512 * 1024);
      Alcotest.(check int) "every alias released" 0 (Graph.pinned_blocks g);
      Fs.fsync dfs keep;
      check_pattern dfs keep ~segments:[ (0, 512 * 1024) ])

let test_abort_graph_midstream () =
  with_rig ~file_bytes:(512 * 1024) (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let c0 = Fs.create_file dfs "/c0" and c1 = Fs.create_file dfs "/c1" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let blocks_seen = ref 0 in
      let mk ?filters ino =
        Graph.connect g ?filters (Endpoint.dst_file dfs ino ())
      in
      let _e0 =
        mk
          ~filters:
            [
              Graph.Tee
                (fun _ _ ->
                  incr blocks_seen;
                  if !blocks_seen = 8 then Graph.abort g ~reason:"shutdown");
            ]
          c0
      in
      let _e1 = mk c1 in
      Graph.start g;
      (match Graph.wait g with
       | Ok n -> Alcotest.failf "graph should abort, returned %d" n
       | Error reason -> Alcotest.(check string) "reason" "shutdown" reason);
      Alcotest.(check bool) "aborted state" true
        (match Graph.state g with Graph.Aborted _ -> true | _ -> false);
      Alcotest.(check int) "every alias released on abort" 0
        (Graph.pinned_blocks g))

(* A TCP sink streams views that carry their data by themselves, so an
   edge cut loose while its slow peer still has blocks queued lends no
   buffer: the graph completes at the fast edge's pace, holding nothing,
   and the dead edge's queued requests call back later as the peer
   catches up. *)
let test_slow_tcp_peer_cut_loose () =
  let net =
    with_rig ~file_bytes:(1024 * 1024) (fun s m ctx ->
      let engine = Machine.engine m and sched = Machine.sched m in
      let n = Kpath_net.Netif.create_net ~bandwidth:40e6 engine in
      let a = Kpath_net.Netif.attach n ~name:"a" ~intr:(Machine.intr m) () in
      let b = Kpath_net.Netif.attach n ~name:"b" ~intr:(Machine.intr m) () in
      let client i ~pause =
        let l = Kpath_net.Tcp.listen b ~port:(80 + i) () in
        let _rx =
          Machine.spawn m ~name:"tcp-client" (fun () ->
              let c = Kpath_net.Tcp.accept l in
              let buf = Bytes.create block_size in
              let rec drain () =
                if Time.(pause > zero) then Sched.sleep sched pause;
                if Kpath_net.Tcp.recv c buf ~pos:0 ~len:block_size > 0 then
                  drain ()
              in
              drain ())
        in
        Kpath_net.Tcp.connect a ~port:(1 + i)
          ~dst:{ Kpath_net.Tcp.a_if = Kpath_net.Netif.id b; a_port = 80 + i }
          ()
      in
      let fast = client 0 ~pause:Time.zero
      and slow = client 1 ~pause:(Time.ms 50) in
      let src_fs, src_ino = src_file s in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let ef = Graph.connect g (Endpoint.Dst_tcp fast) in
      let es = Graph.connect g (Endpoint.Dst_tcp slow) in
      Graph.start g;
      let queued_at_cut = ref 0 in
      ignore
        (Engine.schedule_after engine (Time.ms 100) (fun () ->
             queued_at_cut := Graph.edge_pending_writes es;
             Graph.abort_edge g es ~reason:"too slow"));
      ignore (ok_exn (Graph.wait g));
      Alcotest.(check int) "the fast edge delivered the file" (1024 * 1024)
        (Graph.edge_delivered ef);
      Alcotest.(check bool) "completed, the slow edge dead" true
        (Graph.state g = Graph.Completed
        && Graph.edge_state es = `Dead "too slow");
      Alcotest.(check bool)
        (Printf.sprintf "slow edge's requests queued at the cut (%d)"
           !queued_at_cut)
        true (!queued_at_cut > 0);
      Alcotest.(check bool) "still queued when the graph completed" true
        (Graph.edge_pending_writes es > 0);
      Alcotest.(check int) "no block held for the dead edge" 0
        (Graph.pinned_blocks g);
      while Graph.edge_pending_writes es > 0 do
        Sched.sleep sched (Time.ms 50)
      done;
      List.iter Kpath_net.Tcp.close [ fast; slow ];
      n)
  in
  Alcotest.(check int) "every payload reference released" 0
    (Kpath_net.Tcp.view_chunks net)

let test_out_of_order_release () =
  (* A fast edge and a heavily throttled edge complete each block's
     writes far apart and across block boundaries; the shared buffer
     must be released exactly once, when the slower write finishes. *)
  with_rig ~file_bytes:(128 * 1024) (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let a = Fs.create_file dfs "/a" and b = Fs.create_file dfs "/b" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      ignore (Graph.connect g (Endpoint.dst_file dfs a ()));
      ignore
        (Graph.connect g ~filters:[ Graph.Throttle 100_000.0 ]
           (Endpoint.dst_file dfs b ()));
      Graph.start g;
      let total = ok_exn (Graph.wait g) in
      Alcotest.(check int) "both copies complete" (2 * 128 * 1024) total;
      Alcotest.(check int) "pins drained" 0 (Graph.pinned_blocks g);
      Alcotest.(check int) "unpins match pins"
        (Stats.get (Cache.stats (Machine.cache s.Experiments.machine)) "cache.pins")
        (Stats.get (Cache.stats (Machine.cache s.Experiments.machine)) "cache.unpins");
      Fs.fsync dfs a;
      Fs.fsync dfs b;
      check_pattern dfs a ~segments:[ (0, 128 * 1024) ];
      check_pattern dfs b ~segments:[ (0, 128 * 1024) ])

(* {1 Sinks beyond files} *)

let test_chardev_sink () =
  with_rig ~file_bytes:(64 * 1024) (fun s m ctx ->
      let src_fs, src_ino = src_file s in
      let cd =
        Kpath_dev.Chardev.create ~name:"dac" ~drain_rate:2e6
          ~fifo_capacity:(32 * 1024) ~engine:(Machine.engine m)
          ~intr:(Machine.intr m) ()
      in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      ignore (Graph.connect g (Endpoint.Dst_chardev cd));
      Graph.start g;
      let total = ok_exn (Graph.wait g) in
      Alcotest.(check int) "whole file to the device" (64 * 1024) total;
      let captured = Kpath_dev.Chardev.captured cd in
      let bad = ref 0 in
      String.iteri
        (fun i c -> if c <> Programs.pattern_byte i then incr bad)
        captured;
      Alcotest.(check int) "device saw the pattern in order" 0 !bad)

(* {1 Edge cases and the syscall layer} *)

let test_empty_source () =
  with_rig (fun s _m ctx ->
      let src_fs, _ = src_file s in
      let empty = Fs.create_file src_fs "/empty" in
      let dfs = dst_fs s in
      let c0 = Fs.create_file dfs "/c0" in
      let g = Graph.create ctx ~fs:src_fs ~ino:empty () in
      let e = Graph.connect g (Endpoint.dst_file dfs c0 ()) in
      Graph.start g;
      Alcotest.(check int) "zero bytes" 0 (ok_exn (Graph.wait g));
      Alcotest.(check bool) "edge done" true (Graph.edge_state e = `Done))

let test_sparse_source_rejected () =
  with_rig (fun s _m ctx ->
      let src_fs, _ = src_file s in
      let sparse = Fs.create_file src_fs "/sparse" in
      ignore (Fs.bmap_alloc src_fs sparse 4 ~zero:true);
      sparse.Inode.size <- 5 * block_size;
      let dfs = dst_fs s in
      let g = Graph.create ctx ~fs:src_fs ~ino:sparse () in
      let c0 = Fs.create_file dfs "/c0" in
      ignore (Graph.connect g (Endpoint.dst_file dfs c0 ()));
      match Graph.start g with
      | () -> Alcotest.fail "sparse source accepted"
      | exception Fs_error.Error (Fs_error.Einval _) -> ())

let test_syscall_negative_size () =
  (* splice_graph resolves sizes the way splice(2) does: a size below
     SPLICE_EOF is EINVAL, raised before any set-up charge, block
     transfer or offset change. *)
  let s = Experiments.make_setup ~disk:`Ram ~file_bytes:(64 * 1024) () in
  let m = s.Experiments.machine in
  Experiments.cold_caches s;
  let done_ = ref false in
  let p =
    Machine.spawn m ~name:"negative-size" (fun () ->
        let env = Syscall.make_env m in
        let src = Syscall.openf env "/src/data" [ Syscall.O_RDONLY ] in
        let out =
          Syscall.openf env "/dst/out" [ Syscall.O_CREAT; Syscall.O_WRONLY ]
        in
        let proc = Syscall.proc env in
        let sys0 = proc.Process.cpu_sys in
        (match Syscall.splice_graph env ~srcs:[ src ] ~dsts:[ out ] (-5) with
         | n -> Alcotest.failf "negative size accepted (%d bytes)" n
         | exception Errno.Unix_error (Errno.EINVAL, _) -> ());
        Alcotest.(check int) "only the trap is charged"
          (Time.to_ns (Machine.config m).Config.syscall_overhead)
          (Time.to_ns (Time.diff proc.Process.cpu_sys sys0));
        Alcotest.(check int) "no graph started" 0
          (Stats.get (Graph.ctx_stats (Machine.graph_ctx m)) "graph.started");
        Alcotest.(check int) "destination untouched" 0
          (Syscall.file_size env out);
        (* The source offset is still 0. *)
        let buf = Bytes.create 16 in
        Alcotest.(check int) "read at offset 0" 16
          (Syscall.read env src buf ~pos:0 ~len:16);
        Alcotest.(check bytes) "first bytes of the file"
          (Bytes.init 16 Programs.pattern_byte) buf;
        List.iter (Syscall.close env) [ src; out ];
        done_ := true)
  in
  Machine.run m;
  (match p.Process.exit_status with
   | Some (Process.Crashed e) -> raise e
   | _ -> ());
  Alcotest.(check bool) "ran" true !done_

(* splice(2) from a file and splice_graph with that one sink are one
   pump: the same elapsed time, CPU, engine events and device requests,
   and the same bytes and counts, the one under [splice.*] and the
   other under [graph.*]. *)
let test_splice_is_one_edge_graph () =
  let run disk call =
    let s = Experiments.make_setup ~disk ~file_bytes:(512 * 1024) () in
    Experiments.cold_caches s;
    let m = s.Experiments.machine in
    let result = ref None in
    let _p =
      Machine.spawn m ~name:"one-edge" (fun () ->
          let env = Syscall.make_env m in
          let src = Syscall.openf env "/src/data" [ Syscall.O_RDONLY ] in
          let dst =
            Syscall.openf env "/dst/out" [ Syscall.O_CREAT; Syscall.O_WRONLY ]
          in
          let busy () = Cpu.busy (Sched.cpu (Machine.sched m)) in
          let events () = Engine.events_fired (Machine.engine m) in
          let t0 = Machine.now m and cpu0 = busy () and ev0 = events () in
          let n = call env ~src ~dst in
          result :=
            Some
              ( n,
                Time.to_ns (Time.diff (Machine.now m) t0),
                Time.to_ns (Time.diff (busy ()) cpu0),
                events () - ev0 ))
    in
    Machine.run m;
    let cache = Stats.get (Cache.stats (Machine.cache m)) in
    let pump name prefix =
      Stats.get (Graph.ctx_stats (Machine.graph_ctx m)) (prefix ^ "." ^ name)
    in
    ( Option.get !result,
      (cache "cache.dev_reads", cache "cache.dev_writes"),
      fun prefix ->
        List.map (fun c -> pump c prefix)
          [ "reads_issued"; "cluster_reads"; "writes_issued"; "cluster_writes" ]
    )
  in
  List.iter
    (fun disk ->
      let (moved, elapsed, cpu, events), dev, counts =
        run disk (fun env ~src ~dst ->
            Syscall.splice env ~src ~dst Syscall.splice_eof)
      and (moved', elapsed', cpu', events'), dev', counts' =
        run disk (fun env ~src ~dst ->
            Syscall.splice_graph env ~srcs:[ src ] ~dsts:[ dst ]
              Syscall.splice_eof)
      in
      let at = Printf.sprintf "%s: %s" (Experiments.disk_name disk) in
      Alcotest.(check int) (at "bytes") (512 * 1024) moved;
      Alcotest.(check int) (at "same bytes") moved moved';
      Alcotest.(check int) (at "same elapsed ns") elapsed elapsed';
      Alcotest.(check int) (at "same CPU ns") cpu cpu';
      Alcotest.(check int) (at "same engine events") events events';
      Alcotest.(check (pair int int)) (at "same device requests") dev dev';
      Alcotest.(check (list int)) (at "same pump counts, other names")
        (counts "splice") (counts' "graph");
      Alcotest.(check (list int)) (at "splice(2) counts no graph.*")
        [ 0; 0; 0; 0 ] (counts "graph"))
    [ `Ram; `Rz58 ]

(* A TCP sink whose connection is already closed refuses the shared
   payload: its edge dies with the stream's message and releases its
   references, and the file edge still completes. The shared writer
   refuses a TCP sink outright: an edge writes its runs itself. *)
let test_closed_tcp_sink () =
  with_rig (fun s m ctx ->
      let net = Kpath_net.Netif.create_net (Machine.engine m) in
      let a = Kpath_net.Netif.attach net ~name:"a" ~intr:(Machine.intr m) () in
      let b = Kpath_net.Netif.attach net ~name:"b" ~intr:(Machine.intr m) () in
      let l = Kpath_net.Tcp.listen b ~port:80 () in
      let _srv =
        Machine.spawn m ~name:"tcp-server" (fun () ->
            let c = Kpath_net.Tcp.accept l in
            let buf = Bytes.create 4096 in
            while Kpath_net.Tcp.recv c buf ~pos:0 ~len:4096 > 0 do () done)
      in
      let conn =
        Kpath_net.Tcp.connect a ~port:1
          ~dst:{ Kpath_net.Tcp.a_if = Kpath_net.Netif.id b; a_port = 80 } ()
      in
      Kpath_net.Tcp.close conn;
      let fs, ino = src_file s in
      let g = Graph.create ctx ~fs ~ino () in
      let out = Fs.create_file (dst_fs s) "/out" in
      let e_tcp = Graph.connect g (Endpoint.Dst_tcp conn) in
      let e_file = Graph.connect g (Endpoint.dst_file (dst_fs s) out ()) in
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      Alcotest.(check bool) "the TCP edge dies with the stream's message" true
        (Graph.edge_state e_tcp = `Dead "tcp sink: Tcp.send_view: closed connection");
      Alcotest.(check bool) "the file edge completes" true
        (Graph.edge_state e_file = `Done);
      Alcotest.(check int) "no aliased blocks" 0 (Graph.pinned_blocks g);
      Alcotest.check_raises "Endpoint.write refuses a TCP sink"
        (Invalid_argument "Endpoint.write: a TCP sink is written by its edge")
        (fun () ->
          Endpoint.write (Machine.cache m) (Endpoint.Dst_tcp conn) ~map:[||]
            ~lblk:0 [| Bytes.empty |] ~len:0 ignore))

(* {1 Device errors} *)

(* Two RZ58 drives at cluster bound [max_cluster]: disk0 holds a
   16-block patterned /data, disk1 is empty. [body] arms device errors,
   then builds a graph on the machine's graph context, runs and returns
   it. Afterwards no buffer may be left busy or pinned, nor any source
   block aliased. *)
let with_error_rig ~max_cluster body =
  let config = { Config.decstation_5000_200 with Config.max_cluster } in
  let m = Machine.create ~config () in
  let d0 = Machine.make_drive m ~name:"disk0" ~kind:`Rz58 () in
  let d1 = Machine.make_drive m ~name:"disk1" ~kind:`Rz58 () in
  let scsi = function Machine.Scsi d -> d | Machine.Ram _ -> assert false in
  let cache = Machine.cache m in
  let result = ref None in
  let p =
    Machine.spawn m ~name:"graph-errors" (fun () ->
        let fs0 = Fs.mkfs ~cache (Machine.blkdev d0) ~ninodes:16 in
        let fs1 = Fs.mkfs ~cache (Machine.blkdev d1) ~ninodes:16 in
        let src = Fs.create_file fs0 "/data" in
        let buf = Bytes.create block_size in
        for i = 0 to 15 do
          Programs.fill_pattern buf ~file_off:(i * block_size);
          ignore
            (Fs.write fs0 src ~off:(i * block_size) ~len:block_size buf ~pos:0)
        done;
        Fs.sync fs0;
        Cache.invalidate_dev cache (Machine.blkdev d0);
        result :=
          Some
            (body (Machine.graph_ctx m) ~fs0 ~src ~fs1 ~disk0:(scsi d0)
               ~disk1:(scsi d1)))
  in
  Machine.run m;
  (match p.Process.exit_status with
   | Some (Process.Crashed e) -> raise e
   | _ -> ());
  Cache.check_invariants cache;
  let g = Option.get !result in
  let at = Printf.sprintf "max_cluster %d: %s" max_cluster in
  Alcotest.(check int) (at "no aliased blocks") 0 (Graph.pinned_blocks g);
  Alcotest.(check int) (at "no busy buffers") 0 (Cache.busy_count cache);
  Alcotest.(check int) (at "no pinned buffers") 0 (Cache.pinned_count cache)

let test_source_read_error () =
  List.iter
    (fun max_cluster ->
      with_error_rig ~max_cluster (fun ctx ~fs0 ~src ~fs1 ~disk0 ~disk1:_ ->
          Kpath_dev.Disk.inject_error disk0
            ~blkno:(Option.get (Fs.bmap fs0 src 8));
          let g = Graph.create ctx ~fs:fs0 ~ino:src () in
          let out = Fs.create_file fs1 "/out" in
          ignore (Graph.connect g (Endpoint.dst_file fs1 out ()));
          Graph.start g;
          (match Graph.wait g with
           | Error reason ->
             Alcotest.(check string) "graph aborts with the device's message"
               "disk0: hard error" reason
           | Ok _ -> Alcotest.fail "expected the graph to abort");
          g))
    [ 1; 8 ]

let test_sink_write_error () =
  List.iter
    (fun max_cluster ->
      with_error_rig ~max_cluster (fun ctx ~fs0 ~src ~fs1 ~disk0:_ ~disk1 ->
          let bad = Fs.create_file fs1 "/bad" in
          let good = Fs.create_file fs1 "/good" in
          Kpath_dev.Disk.inject_error disk1
            ~blkno:(Fs.bmap_alloc fs1 bad 4 ~zero:false);
          let g = Graph.create ctx ~fs:fs0 ~ino:src () in
          let edges =
            List.map
              (fun ino -> Graph.connect g (Endpoint.dst_file fs1 ino ()))
              [ bad; good ]
          in
          Graph.start g;
          let total = ok_exn (Graph.wait g) in
          (match edges with
           | [ eb; eg ] ->
             Alcotest.(check bool) "only the failing edge dies" true
               (Graph.edge_state eb = `Dead "disk1: hard error");
             Alcotest.(check bool) "the other edge completes" true
               (Graph.edge_state eg = `Done);
             Alcotest.(check int) "full copy on the other edge"
               (16 * block_size) (Graph.edge_delivered eg);
             Alcotest.(check int) "total sums the edges"
               (Graph.edge_delivered eb + Graph.edge_delivered eg)
               total
           | _ -> Alcotest.fail "two edges expected");
          Fs.fsync fs1 good;
          check_pattern fs1 good ~segments:[ (0, 16 * block_size) ];
          g))
    [ 1; 8 ]

let test_syscall_shapes () =
  let s = Experiments.make_setup ~disk:`Ram ~file_bytes:(64 * 1024) () in
  let m = s.Experiments.machine in
  let w = Programs.spawn_file_writer m ~path:"/src/b" ~bytes:(32 * 1024) in
  Machine.run m;
  if not (Process.is_zombie w) then Alcotest.fail "writer stuck";
  Experiments.cold_caches s;
  let done_ = ref false in
  let _p =
    Machine.spawn m ~name:"shapes" (fun () ->
        let env = Syscall.make_env m in
        let a = Syscall.openf env "/src/data" [ Syscall.O_RDONLY ] in
        let b = Syscall.openf env "/src/b" [ Syscall.O_RDONLY ] in
        let log =
          Syscall.openf env "/dst/log" [ Syscall.O_CREAT; Syscall.O_WRONLY ]
        in
        let out2 =
          Syscall.openf env "/dst/out2" [ Syscall.O_CREAT; Syscall.O_WRONLY ]
        in
        (* A graph has one source and at least one sink: many-to-many,
           fan-in and empty lists are EINVAL, and nothing is written. *)
        List.iter
          (fun (what, srcs, dsts) ->
            match Syscall.splice_graph env ~srcs ~dsts Syscall.splice_eof with
            | n -> Alcotest.failf "%s accepted (%d bytes)" what n
            | exception Errno.Unix_error (Errno.EINVAL, _) -> ())
          [
            ("many-to-many", [ a; b ], [ log; out2 ]);
            ("fan-in", [ a; b ], [ log ]);
            ("no source", [], [ log ]);
            ("no sink", [ a ], []);
          ];
        Alcotest.(check int) "no graph started" 0
          (Stats.get (Graph.ctx_stats (Machine.graph_ctx m)) "graph.started");
        Alcotest.(check (list int)) "sinks untouched" [ 0; 0 ]
          (List.map (Syscall.file_size env) [ log; out2 ]);
        List.iter (Syscall.close env) [ a; b; log; out2 ];
        done_ := true)
  in
  Machine.run m;
  Alcotest.(check bool) "ran" true !done_;
  Cache.check_invariants (Machine.cache m)

let test_trace_and_stats () =
  let max_latency_events = ref 0 in
  with_rig ~file_bytes:(64 * 1024) (fun s m ctx ->
      Trace.enable (Machine.trace m) "graph";
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let c0 = Fs.create_file dfs "/c0" and c1 = Fs.create_file dfs "/c1" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      List.iter
        (fun ino ->
          ignore (Graph.connect g (Endpoint.dst_file dfs ino ())))
        [ c0; c1 ];
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      let stats = Graph.ctx_stats ctx in
      Alcotest.(check int) "graphs started" 1 (Stats.get stats "graph.started");
      Alcotest.(check int) "graphs completed" 1
        (Stats.get stats "graph.completed");
      Alcotest.(check int) "edges completed" 2
        (Stats.get stats "graph.edges_completed");
      Alcotest.(check int) "reads = blocks" 8
        (Stats.get stats "graph.reads_issued" + Stats.get stats "graph.read_hits");
      Alcotest.(check int) "writes = blocks x edges" 16
        (Stats.get stats "graph.writes_issued");
      max_latency_events :=
        Histogram.count (Stats.histogram stats "graph.block_latency_us");
      let evs = Trace.events (Machine.trace m) in
      let has needle =
        List.exists (fun e -> Util.contains e.Trace.ev_msg needle) evs
      in
      Alcotest.(check bool) "started event" true (has "started");
      Alcotest.(check bool) "aliased read events" true (has "aliased");
      Alcotest.(check bool) "write done events" true (has "write done");
      Alcotest.(check bool) "completion event" true (has "completed"));
  Alcotest.(check int) "one latency sample per block" 8 !max_latency_events

(* A block's latency runs from its read's issue to its last release, so
   a cold one-block copy records at least the source drive's service
   time: the gap between the traced read issue and read completion. The
   sink, a device FIFO with room for the block, accepts it at once. *)
let test_block_latency_covers_read () =
  with_rig ~disk:`Rz58 ~file_bytes:block_size (fun s m ctx ->
      Trace.enable (Machine.trace m) "graph";
      let src_fs, src_ino = src_file s in
      let cd =
        Kpath_dev.Chardev.create ~name:"dac" ~drain_rate:1e6
          ~fifo_capacity:(64 * 1024) ~engine:(Machine.engine m)
          ~intr:(Machine.intr m) ()
      in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      ignore (Graph.connect g (Endpoint.Dst_chardev cd));
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      let at needle =
        match
          List.find_opt
            (fun e -> Util.contains e.Trace.ev_msg needle)
            (Trace.events (Machine.trace m))
        with
        | Some e -> e.Trace.ev_time
        | None -> Alcotest.failf "no %S event" needle
      in
      let service =
        Time.to_us_f (Time.diff (at "read done lblk 0") (at "read lblk 0"))
      in
      let h = Stats.histogram (Graph.ctx_stats ctx) "graph.block_latency_us" in
      Alcotest.(check int) "one sample" 1 (Histogram.count h);
      let latency = Option.get (Histogram.min_value h) in
      Alcotest.(check bool)
        (Printf.sprintf "latency %d us covers the %.0f us device read" latency
           service)
        true
        (service > 1000.0 && latency >= int_of_float service))

(* {1 Verified filter programs on edges} *)

let test_prog_checksum_bit_identical () =
  (* The acceptance criterion: an edge running the FNV program
     produces the same checksum, bit for bit, as the built-in
     Checksum stage (and as the host-side recomputation). *)
  with_rig (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let c0 = Fs.create_file dfs "/c0" and c1 = Fs.create_file dfs "/c1" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let mk filters ino =
        Graph.connect g ~filters (Endpoint.dst_file dfs ino ())
      in
      let builtin = mk [ Graph.Checksum ] c0 in
      let prog = mk [ Graph.Prog (Samples.checksum ()) ] c1 in
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      let expect = expected_checksum ~file_bytes:(256 * 1024) in
      Alcotest.(check (option int)) "built-in checksum" (Some expect)
        (Graph.edge_checksum builtin);
      Alcotest.(check (option int)) "program checksum bit-identical"
        (Some expect) (Graph.edge_checksum prog);
      let stats = Graph.ctx_stats ctx in
      Alcotest.(check int) "one program run per block" (256 * 1024 / block_size)
        (Stats.get stats "graph.prog_runs");
      Alcotest.(check bool) "program instructions were charged" true
        (Stats.get stats "graph.prog_insns" > 0);
      (* The payload loop costs simulated CPU: well over the per-block
         handful of instructions a trivial program would use. *)
      Alcotest.(check bool) "per-byte work accounted" true
        (Stats.get stats "graph.prog_insns" > 256 * 1024);
      Fs.fsync dfs c1;
      check_pattern dfs c1 ~segments:[ (0, 256 * 1024) ])

let test_prog_backend_parity () =
  (* The whole fan-out experiment — machine, syscalls, graph, filter
     program — runs the closure-compiled backend. Its exact results were
     recorded when the interpreter could still be threaded through the
     machine and both backends agreed bit for bit, and re-recorded when
     the graph's reads took splice's cluster ramp and one watermark slot
     per cluster (9 device reads and 1216 events, from 10 and 1236), and
     when TCP took delayed ACKs, a 5 s persist floor and sender-side
     silly-window avoidance (1087 events), and when TCP edges took one
     write request per run and window updates waited for two segments
     (987 events, less server CPU); the program's runs and instructions
     did not move. The per-block
     instruction charge is also checked live against the reference
     interpreter [Vm.exec]. Floats are hex literals so the check is
     bit-exact. *)
  let fo =
    Experiments.measure_fanout ~clients:4 ~file_bytes:(256 * 1024)
      ~bandwidth:40e6
      ~filters:[ Graph.Prog (Samples.checksum ()) ]
      ()
  in
  Alcotest.(check (triple bool int int))
    "verified, device reads, events" (true, 9, 987)
    Experiments.(fo.fo_verified, fo.fo_device_reads, fo.fo_events);
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "simulated seconds and server CPU"
    (0x1.c743dd0ac3b99p-3, 0x1.4a98102c9dedcp-1)
    Experiments.(fo.fo_seconds, fo.fo_server_cpu_sec);
  Alcotest.(check (pair int int))
    "program runs and instructions charged" (128, 6292864)
    Experiments.(fo.fo_prog_runs, fo.fo_prog_insns);
  let p = Samples.checksum () in
  let r =
    Vm.exec p (Vm.new_state p) ~data:(Bytes.make block_size 'x')
      ~len:block_size ~lblk:0 ~emit:(fun _ _ -> ())
  in
  Alcotest.(check bool) "interpreter passes the block" true
    (r.Vm.r_verdict = Vm.Pass);
  Alcotest.(check int) "interpreter charges the same per block"
    (fo.Experiments.fo_prog_insns / fo.Experiments.fo_prog_runs)
    r.Vm.r_steps

let test_prog_drop_accounting () =
  (* A dropper program settles dropped blocks without delivering them;
     the edge still completes, and the refcount discipline holds with a
     plain sibling edge aliasing every block. *)
  with_rig (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let full = Fs.create_file dfs "/full" and part = Fs.create_file dfs "/part" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let mk ?filters ino =
        Graph.connect g ?filters (Endpoint.dst_file dfs ino ())
      in
      let ef = mk full in
      let ep = mk ~filters:[ Graph.Prog (Samples.dropper ~modulo:4) ] part in
      Graph.start g;
      let total = ok_exn (Graph.wait g) in
      let nblocks = 256 * 1024 / block_size in
      let dropped = (nblocks + 3) / 4 in
      Alcotest.(check bool) "dropper edge done" true (Graph.edge_state ep = `Done);
      Alcotest.(check int) "survivor delivered everything" (256 * 1024)
        (Graph.edge_delivered ef);
      Alcotest.(check int) "dropper delivered the kept blocks only"
        ((nblocks - dropped) * block_size)
        (Graph.edge_delivered ep);
      Alcotest.(check int) "total reflects the drops"
        ((2 * nblocks - dropped) * block_size)
        total;
      Alcotest.(check int) "drops counted" dropped
        (Stats.get (Graph.ctx_stats ctx) "graph.prog_drops");
      Alcotest.(check int) "every alias released" 0 (Graph.pinned_blocks g);
      (* Kept blocks landed at their home offsets. *)
      Fs.fsync dfs part;
      let buf = Bytes.create block_size in
      let bad = ref 0 in
      for lblk = 0 to nblocks - 1 do
        if lblk mod 4 <> 0 then begin
          let off = lblk * block_size in
          let n = Fs.read dfs part ~off ~len:block_size buf ~pos:0 in
          Alcotest.(check int) "kept block read" block_size n;
          for i = 0 to n - 1 do
            if Bytes.get buf i <> Programs.pattern_byte (off + i) then incr bad
          done
        end
      done;
      Alcotest.(check int) "kept blocks carry the pattern" 0 !bad)

let test_prog_fault_mid_cluster () =
  (* A program that faults mid-stream (block 10 of 64, with clustered
     reads and a sibling edge's writes in flight) kills only its own
     edge; every pinned buffer is released exactly once. *)
  let faulty =
    prog
      {|; fault on block 10 by loading one byte past the payload
fuel 16
    blkno r0
    jne r0, 10, pass
    len r1
    ldp r2, r1
pass:
    ret
|}
  in
  with_rig ~file_bytes:(512 * 1024) (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let keep = Fs.create_file dfs "/keep" and bad = Fs.create_file dfs "/bad" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let mk ?filters ino =
        Graph.connect g ?filters (Endpoint.dst_file dfs ino ())
      in
      let ek = mk keep in
      let eb = mk ~filters:[ Graph.Prog faulty ] bad in
      Graph.start g;
      let total = ok_exn (Graph.wait g) in
      Alcotest.(check bool) "graph completed despite the fault" true
        (Graph.state g = Graph.Completed);
      Alcotest.(check bool) "survivor done" true (Graph.edge_state ek = `Done);
      (match Graph.edge_state eb with
       | `Dead reason ->
         Alcotest.(check bool)
           (Printf.sprintf "diagnostic names the fault (%s)" reason)
           true
           (String.length reason >= 10 && String.sub reason 0 10 = "prog fault")
       | _ -> Alcotest.fail "faulting edge should be dead");
      Alcotest.(check int) "survivor delivered everything" (512 * 1024)
        (Graph.edge_delivered ek);
      Alcotest.(check bool) "total = survivor + partial victim" true
        (total >= 512 * 1024 && total < 2 * 512 * 1024);
      Alcotest.(check int) "faults counted" 1
        (Stats.get (Graph.ctx_stats ctx) "graph.prog_faults");
      Alcotest.(check int) "every alias released" 0 (Graph.pinned_blocks g);
      let cstats = Cache.stats (Machine.cache s.Experiments.machine) in
      Alcotest.(check int) "released exactly once"
        (Stats.get cstats "cache.pins")
        (Stats.get cstats "cache.unpins");
      Fs.fsync dfs keep;
      check_pattern dfs keep ~segments:[ (0, 512 * 1024) ])

let test_prog_transform_cow () =
  (* A transforming program must copy-on-write: its sink sees the
     masked bytes while the sibling edge sharing the same aliased
     buffers still delivers the original pattern. *)
  let key = 0x5a in
  with_rig ~file_bytes:(64 * 1024) (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let plain = Fs.create_file dfs "/plain" and masked = Fs.create_file dfs "/masked" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let mk ?filters ino =
        Graph.connect g ?filters (Endpoint.dst_file dfs ino ())
      in
      let _ep = mk plain in
      let _em = mk ~filters:[ Graph.Prog (Samples.xor_mask ~key) ] masked in
      Graph.start g;
      let total = ok_exn (Graph.wait g) in
      Alcotest.(check int) "both copies complete" (2 * 64 * 1024) total;
      Fs.fsync dfs plain;
      Fs.fsync dfs masked;
      (* The shared buffers were never mutated in place. *)
      check_pattern dfs plain ~segments:[ (0, 64 * 1024) ];
      let buf = Bytes.create block_size in
      let bad = ref 0 in
      for lblk = 0 to (64 * 1024 / block_size) - 1 do
        let off = lblk * block_size in
        let n = Fs.read dfs masked ~off ~len:block_size buf ~pos:0 in
        Alcotest.(check int) "masked block read" block_size n;
        for i = 0 to n - 1 do
          let want =
            Char.chr (Char.code (Programs.pattern_byte (off + i)) lxor key)
          in
          if Bytes.get buf i <> want then incr bad
        done
      done;
      Alcotest.(check int) "masked copy is pattern XOR key" 0 !bad)

let test_prog_redirect_routes_blocks () =
  (* Content routing: edge 0 runs the router (block b -> sibling edge
     b mod 2) and edge 1 drops everything it is offered directly, so
     each sink receives exactly its residue class. *)
  with_rig ~file_bytes:(64 * 1024) (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let even = Fs.create_file dfs "/even" and odd = Fs.create_file dfs "/odd" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let mk filters ino =
        Graph.connect g ~filters (Endpoint.dst_file dfs ino ())
      in
      let drop_all = prog "fuel 4\n    drop\n" in
      let er = mk [ Graph.Prog (Samples.router ~fanout:2) ] even in
      let ed = mk [ Graph.Prog drop_all ] odd in
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      let nblocks = 64 * 1024 / block_size in
      Alcotest.(check bool) "router edge done" true (Graph.edge_state er = `Done);
      Alcotest.(check bool) "dropper edge done" true (Graph.edge_state ed = `Done);
      (* Redirected delivery accounts to the owning (router) edge. *)
      Alcotest.(check int) "router delivered every block" (64 * 1024)
        (Graph.edge_delivered er);
      Alcotest.(check int) "dropper delivered nothing" 0
        (Graph.edge_delivered ed);
      Alcotest.(check int) "redirects counted" nblocks
        (Stats.get (Graph.ctx_stats ctx) "graph.prog_redirects");
      Alcotest.(check int) "every alias released" 0 (Graph.pinned_blocks g);
      Fs.fsync dfs even;
      Fs.fsync dfs odd;
      let buf = Bytes.create block_size in
      let bad = ref 0 in
      for lblk = 0 to nblocks - 1 do
        let ino = if lblk mod 2 = 0 then even else odd in
        let off = lblk * block_size in
        let n = Fs.read dfs ino ~off ~len:block_size buf ~pos:0 in
        Alcotest.(check int) "routed block read" block_size n;
        for i = 0 to n - 1 do
          if Bytes.get buf i <> Programs.pattern_byte (off + i) then incr bad
        done
      done;
      Alcotest.(check int) "each residue class at its home sink" 0 !bad)

let test_prog_negative_redirect () =
  (* A verified program may compute a negative edge index. It must kill
     its edge like an index past the end, not crash the pump; with every
     edge dead the graph ends in Error and no buffer stays pinned. *)
  let neg = prog "fuel 8\n    mov r0, 0\n    sub r0, 1\n    redirect r0\n" in
  with_rig ~file_bytes:(64 * 1024) (fun s _m ctx ->
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let edges =
        List.init 2 (fun i ->
            let ino = Fs.create_file dfs (Printf.sprintf "/r%d" i) in
            Graph.connect g ~filters:[ Graph.Prog neg ]
              (Endpoint.dst_file dfs ino ()))
      in
      Graph.start g;
      (match Graph.wait g with
       | Ok n -> Alcotest.failf "graph succeeded with %d bytes" n
       | Error _ -> ());
      List.iter
        (fun e ->
          match Graph.edge_state e with
          | `Dead reason ->
            Alcotest.(check string) "death reason"
              "prog redirect: edge index -1 out of range" reason
          | _ -> Alcotest.fail "redirecting edge should be dead")
        edges;
      Alcotest.(check int) "faults counted" 2
        (Stats.get (Graph.ctx_stats ctx) "graph.prog_faults");
      Alcotest.(check int) "every alias released" 0 (Graph.pinned_blocks g))

let test_prog_emits_and_readonly () =
  (* A read-only probe program fingerprints each block through key-1
     emits; the blocks flow to the sink untouched, and the non-zero-key
     stream is observable in order via edge_emits. *)
  with_rig ~file_bytes:(64 * 1024) (fun s _m ctx ->
      ignore ctx;
      let src_fs, src_ino = src_file s in
      let dfs = dst_fs s in
      let c0 = Fs.create_file dfs "/c0" in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      let e =
        Graph.connect g ~filters:[ Graph.Prog (Samples.tee_hash ()) ]
          (Endpoint.dst_file dfs c0 ())
      in
      Graph.start g;
      ignore (ok_exn (Graph.wait g));
      (* Recompute the content hashes host-side (FNV-1a, no block-number
         mix -- that is the built-in checksum's job, not the probe's). *)
      let nblocks = 64 * 1024 / block_size in
      let chunk = Bytes.create block_size in
      let expect =
        List.init nblocks (fun lblk ->
            Programs.fill_pattern chunk ~file_off:(lblk * block_size);
            let h = ref 0x811c9dc5 in
            for i = 0 to block_size - 1 do
              h := !h lxor Char.code (Bytes.get chunk i);
              h := !h * 0x01000193 land 0xffffffff
            done;
            (1, !h))
      in
      Alcotest.(check (list (pair int int))) "one fingerprint per block, in order"
        expect (Graph.edge_emits e);
      (* A program edge that never emits key 0 reads as checksum 0. *)
      Alcotest.(check (option int)) "no key-0 emits -> zero checksum" (Some 0)
        (Graph.edge_checksum e);
      Fs.fsync dfs c0;
      check_pattern dfs c0 ~segments:[ (0, 64 * 1024) ])

let test_syscall_prog_load () =
  (* The load/attach split at the system-call boundary: a rejected
     program never becomes a handle, an accepted one attaches through
     splice_graph and produces the same checksum as the built-in. *)
  let s = Experiments.make_setup ~disk:`Ram ~file_bytes:(64 * 1024) () in
  let m = s.Experiments.machine in
  Experiments.cold_caches s;
  let done_ = ref false in
  let _p =
    Machine.spawn m ~name:"prog-load" (fun () ->
        let env = Syscall.make_env m in
        (match Syscall.prog_load env "fuel 16\ntop:\n    jmp top\n" with
         | Ok _ -> Alcotest.fail "backward jump accepted"
         | Error diag ->
           Alcotest.(check bool)
             (Printf.sprintf "diagnostic names the rule (%s)" diag)
             true
             (Util.contains diag "unbounded-loop"));
        let p =
          match Syscall.prog_load env Samples.checksum_src with
          | Ok p -> p
          | Error diag -> Alcotest.failf "checksum program rejected: %s" diag
        in
        let src = Syscall.openf env "/src/data" [ Syscall.O_RDONLY ] in
        let out =
          Syscall.openf env "/dst/out" [ Syscall.O_CREAT; Syscall.O_WRONLY ]
        in
        let g =
          Syscall.splice_graph_start env ~srcs:[ src ] ~dsts:[ out ]
            ~filters:[ Graph.Prog p ] Syscall.splice_eof
        in
        (match Graph.wait g with
         | Ok n -> Alcotest.(check int) "full copy" (64 * 1024) n
         | Error e -> Alcotest.fail e);
        (match Graph.edges g with
         | [ e ] ->
           Alcotest.(check (option int)) "loaded program checksums"
             (Some (expected_checksum ~file_bytes:(64 * 1024)))
             (Graph.edge_checksum e)
         | _ -> Alcotest.fail "one edge expected");
        List.iter (Syscall.close env) [ src; out ];
        done_ := true)
  in
  Machine.run m;
  Alcotest.(check bool) "ran" true !done_;
  Cache.check_invariants (Machine.cache m)

(* {1 Block areas} *)

(* The context's area counters: made fresh, lent out, given back. *)
let areas ctx =
  let st = Graph.ctx_stats ctx in
  ( Stats.get st "graph.areas_made",
    Stats.get st "graph.areas_out",
    Stats.get st "graph.areas_back" )

let test_areas_recycled () =
  (* A 1 MB copy through xor_stream twice: the first program copies each
     block into a pooled area, the second writes that area in place,
     and the area comes back when its write completes — not before, or
     a later block's copy would overwrite it while the device still
     reads it — and the destination's store keeps a copy, not the area.
     The two ciphers cancel, and the copy touches no more fresh areas
     than the blocks its flow control lets the graph hold, however long
     the file. The source stays cached, its buffers sealed by the sync,
     so no device read puts a displaced private area on the free list:
     the copies can only recycle their own areas. *)
  let file_bytes = 1024 * 1024 in
  with_rig (fun s _ ctx ->
      let src_fs, _ = src_file s in
      let dfs = dst_fs s in
      let data = Fs.create_file src_fs "/mixed" in
      let buf = Bytes.create block_size in
      for lblk = 0 to (file_bytes / block_size) - 1 do
        let off = lblk * block_size in
        Programs.fill_pattern buf ~file_off:off;
        ignore (Fs.write src_fs data ~off ~len:block_size buf ~pos:0)
      done;
      Fs.sync src_fs;
      let out = Fs.create_file dfs "/out" in
      let g = Graph.create ctx ~fs:src_fs ~ino:data () in
      let xor = Graph.Prog (Samples.xor_stream ~key:0x6b) in
      ignore
        (Graph.connect g ~filters:[ xor; xor ] (Endpoint.dst_file dfs out ()));
      Graph.start g;
      Alcotest.(check int) "whole file delivered" file_bytes
        (ok_exn (Graph.wait g));
      let made, lent, back = areas ctx in
      Alcotest.(check int) "one area lent per block" (file_bytes / block_size)
        lent;
      Alcotest.(check int) "every area came back" lent back;
      Alcotest.(check bool)
        (Printf.sprintf "fresh areas (%d) within the flow-control bound (%d)"
           made flowctl_bound)
        true (made <= flowctl_bound);
      Fs.fsync dfs out;
      let bad = ref 0 in
      for lblk = 0 to (file_bytes / block_size) - 1 do
        let off = lblk * block_size in
        ignore (Fs.read dfs out ~off ~len:block_size buf ~pos:0);
        bad :=
          !bad
          + Programs.pattern_mismatches buf ~pos:0 ~len:block_size
              ~file_off:off
      done;
      Alcotest.(check int) "the copy matches the source" 0 !bad)

(* Run one source through one edge per filter list ([filters g], in
   connect order), each to its own file sink; [before_start] sees the
   edges before the graph starts and [check] the outcome after. Once
   the machine has run dry, every area the graph lent must be back: a
   dead edge's abandoned writes and throttled blocks may outlive the
   graph. *)
let run_edges ?(before_start = ignore) filters check =
  let ctx =
    with_rig ~file_bytes:(128 * 1024) (fun s _m ctx ->
        let src_fs, src_ino = src_file s in
        let dfs = dst_fs s in
        let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
        let es =
          List.mapi
            (fun i filters ->
              let ino = Fs.create_file dfs (Printf.sprintf "/e%d" i) in
              Graph.connect g ~filters (Endpoint.dst_file dfs ino ()))
            (filters g)
        in
        before_start es;
        Graph.start g;
        check (Graph.wait g) es;
        Alcotest.(check int) "every alias released" 0 (Graph.pinned_blocks g);
        ctx)
  in
  let _, lent, back = areas ctx in
  Alcotest.(check bool) (Printf.sprintf "areas were lent (%d)" lent) true
    (lent > 0);
  Alcotest.(check int) "every lent area came back" lent back

let test_areas_return_on_every_path () =
  (* Each program stores before its verdict, so each block it sees holds
     a private area. Dropped and faulted blocks give it back at once,
     a redirected one when the sibling sink's write completes, and
     blocks in hand when their edge is cut (here, waiting in a
     throttle) when the pipeline finds the edge dead. *)
  let store_then body = prog ("fuel 32\n    stp 0, 1\n" ^ body) in
  let dead e =
    match Graph.edge_state e with `Dead _ -> true | `Active | `Done -> false
  in
  (* Drop: odd blocks are dropped after the store. *)
  run_edges
    (fun _ ->
      [ [ Graph.Prog
            (store_then
               "    blkno r0\n    and r0, 1\n    jeq r0, 0, keep\n    drop\nkeep:\n    ret\n") ] ])
    (fun outcome _ ->
      Alcotest.(check int) "even blocks delivered" (64 * 1024)
        (ok_exn outcome));
  (* Fault: block 10 loads past the payload after its store. *)
  run_edges
    (fun _ ->
      [ [ Graph.Prog
            (store_then
               "    blkno r0\n    jne r0, 10, pass\n    len r1\n    ldp r2, r1\npass:\n    ret\n") ];
        [] ])
    (fun outcome es ->
      ignore (ok_exn outcome);
      Alcotest.(check (list bool)) "only the faulting edge died" [ true; false ]
        (List.map dead es));
  (* Redirect: edge 0 stores and sends every block through edge 1's
     sink; edge 1 drops what it is offered directly. *)
  run_edges
    (fun _ ->
      [ [ Graph.Prog (store_then "    redirect 1\n") ];
        [ Graph.Prog (prog "fuel 4\n    drop\n") ] ])
    (fun outcome es ->
      ignore (ok_exn outcome);
      Alcotest.(check (list int)) "redirected delivery accounts to edge 0"
        [ 128 * 1024; 0 ]
        (List.map Graph.edge_delivered es));
  (* Edge abort: the edge cuts itself loose at its 8th block while
     earlier blocks wait in its throttle. *)
  let cut = ref None and seen = ref 0 in
  run_edges
    ~before_start:(fun es -> cut := Some (List.hd es))
    (fun g ->
      [ [ Graph.Prog (store_then "    ret\n");
          Graph.Tee
            (fun _ _ ->
              incr seen;
              if !seen = 8 then
                Graph.abort_edge g (Option.get !cut) ~reason:"client gone");
          Graph.Throttle 100_000.0 ];
        [] ])
    (fun outcome es ->
      ignore (ok_exn outcome);
      Alcotest.(check (list bool)) "only the cut edge died" [ true; false ]
        (List.map dead es))

let test_fanout_snapshots_copy_nothing () =
  (* Three TCP clients stream each block as views of the one sealed area
     its source buffer holds, which is the source store's own area: the
     graph copies nothing and lends no area. The source file is then
     overwritten while the streams' last views are still
     unacknowledged. The writes take private areas first ({!Cache.own}),
     so the clients still receive the original bytes, and the areas the
     views shared still hold them. Each payload is freed once: a second
     release would raise, and a missing one would leave a view chunk. *)
  let file_bytes = 1024 * 1024 and clients = 3 in
  let nblocks = file_bytes / block_size in
  let received = Array.make clients 0 and bad = ref 0 in
  let net = ref None in
  (* What the first edge's stages saw: the data its TCP views wrap
     (kept here only to compare identities and contents). *)
  let seen = ref [] in
  let stored = Array.make nblocks Bytes.empty in
  let ctx =
    with_rig ~file_bytes (fun s m ctx ->
        let n = Kpath_net.Netif.create_net ~bandwidth:40e6 (Machine.engine m) in
        net := Some n;
        let a = Kpath_net.Netif.attach n ~name:"a" ~intr:(Machine.intr m) () in
        let b = Kpath_net.Netif.attach n ~name:"b" ~intr:(Machine.intr m) () in
        let conns =
          List.init clients (fun i ->
              let l = Kpath_net.Tcp.listen b ~port:(80 + i) () in
              let _rx =
                Machine.spawn m ~name:"tcp-client" (fun () ->
                    let c = Kpath_net.Tcp.accept l in
                    let buf = Bytes.create block_size in
                    let rec drain () =
                      let k = Kpath_net.Tcp.recv c buf ~pos:0 ~len:block_size in
                      if k > 0 then begin
                        bad :=
                          !bad
                          + Programs.pattern_mismatches buf ~pos:0 ~len:k
                              ~file_off:received.(i);
                        received.(i) <- received.(i) + k;
                        drain ()
                      end
                    in
                    drain ())
              in
              Kpath_net.Tcp.connect a ~port:(1 + i)
                ~dst:{ Kpath_net.Tcp.a_if = Kpath_net.Netif.id b; a_port = 80 + i }
                ())
        in
        let src_fs, src_ino = src_file s in
        let cache = Machine.cache m in
        let made () = Stats.get (Cache.stats cache) "cache.areas_made" in
        let made0 = made () in
        let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
        List.iteri
          (fun i c ->
            let filters =
              if i = 0 then [ Graph.Tee (fun data _ -> seen := data :: !seen) ]
              else []
            in
            ignore (Graph.connect g ~filters (Endpoint.Dst_tcp c)))
          conns;
        Graph.start g;
        Alcotest.(check int) "every client's stream accepted"
          (clients * file_bytes) (ok_exn (Graph.wait g));
        Alcotest.(check int) "no area made while streaming" made0 (made ());
        (* Each block's sealed area, as a read of it finds it now. *)
        for lblk = 0 to nblocks - 1 do
          let phys = Option.get (Fs.bmap src_fs src_ino lblk) in
          let b = Cache.bread cache (Fs.dev src_fs) phys in
          stored.(lblk) <- b.Buf.b_data;
          Cache.brelse cache b
        done;
        (* Overwrite the whole source while views are in flight. *)
        let junk = Bytes.make block_size '\xa5' in
        for lblk = 0 to nblocks - 1 do
          ignore
            (Fs.write src_fs src_ino ~off:(lblk * block_size) ~len:block_size
               junk ~pos:0)
        done;
        List.iter Kpath_net.Tcp.close conns;
        ctx)
  in
  Alcotest.(check (list int)) "every client got the whole file"
    (List.init clients (fun _ -> file_bytes))
    (Array.to_list received);
  Alcotest.(check int) "pattern-correct despite the overwrite" 0 !bad;
  Alcotest.(check int) "every payload reference released" 0
    (Kpath_net.Tcp.view_chunks (Option.get !net));
  Alcotest.(check int) "one payload per block" nblocks
    (Stats.get (Graph.ctx_stats ctx) "graph.payload_snapshots");
  let _, lent, _ = areas ctx in
  Alcotest.(check int) "no area lent" 0 lent;
  Alcotest.(check int) "the edge saw every block" nblocks (List.length !seen);
  Alcotest.(check bool) "each block streamed from its store area" true
    (List.for_all (fun d -> Array.exists (fun a -> a == d) stored) !seen);
  let intact = ref 0 in
  Array.iteri
    (fun lblk a ->
      if Programs.pattern_mismatches a ~pos:0 ~len:block_size
           ~file_off:(lblk * block_size) = 0
      then incr intact)
    stored;
  Alcotest.(check int) "the shared areas still hold the old bytes" nblocks
    !intact

(* {1 TCP write runs}

   A TCP edge stages its blocks like a file edge, and each run of up to
   max_cluster blocks consecutive in the stream is one write request:
   its pieces queue on the connection back to back, as views of the
   shared areas or as a program's private copies. *)

(* Read the rig's source blocks [lblks] into the cache. *)
let warm_blocks s lblks =
  let src_fs, src_ino = src_file s in
  let buf = Bytes.create block_size in
  List.iter
    (fun lblk ->
      ignore
        (Fs.read src_fs src_ino ~off:(lblk * block_size) ~len:block_size buf
           ~pos:0))
    lblks

(* The rig's source streamed over a 40 MB/s segment to one TCP reader
   per filter list in [edges], in connect order; each reader waits
   [stall] before its first read, then drains its stream. The source
   blocks in [warm] are read into the cache first. [sample] sees the
   graph every 500 µs while it runs. Returns each reader's stream, once
   the machine has run dry, with the graph context's counters and the
   payload references the sockets still hold. *)
let tcp_fanout ?disk ?(file_bytes = 1024 * 1024) ?(stall = Time.zero)
    ?(warm = []) ?(sample = ignore) edges =
  let streams = List.map (fun _ -> Buffer.create file_bytes) edges in
  let net = ref None in
  let ctx =
    with_rig ?disk ~file_bytes (fun s m ctx ->
        let engine = Machine.engine m and sched = Machine.sched m in
        let n = Kpath_net.Netif.create_net ~bandwidth:40e6 engine in
        net := Some n;
        let a = Kpath_net.Netif.attach n ~name:"a" ~intr:(Machine.intr m) () in
        let b = Kpath_net.Netif.attach n ~name:"b" ~intr:(Machine.intr m) () in
        let conns =
          List.mapi
            (fun i stream ->
              let l = Kpath_net.Tcp.listen b ~port:(80 + i) () in
              let _rx =
                Machine.spawn m ~name:"tcp-reader" (fun () ->
                    let c = Kpath_net.Tcp.accept l in
                    if Time.(stall > zero) then Sched.sleep sched stall;
                    let buf = Bytes.create block_size in
                    let rec drain () =
                      let k = Kpath_net.Tcp.recv c buf ~pos:0 ~len:block_size in
                      if k > 0 then begin
                        Buffer.add_subbytes stream buf 0 k;
                        drain ()
                      end
                    in
                    drain ();
                    Kpath_net.Tcp.close c)
              in
              Kpath_net.Tcp.connect a ~port:(1 + i)
                ~dst:{ Kpath_net.Tcp.a_if = Kpath_net.Netif.id b; a_port = 80 + i }
                ())
            streams
        in
        warm_blocks s warm;
        let src_fs, src_ino = src_file s in
        let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
        List.iter2
          (fun c filters ->
            ignore (Graph.connect g ~filters (Endpoint.Dst_tcp c)))
          conns edges;
        let rec tick () =
          sample g;
          if Graph.state g = Graph.Running then
            ignore (Engine.schedule_after engine (Time.us 500) tick)
        in
        Graph.start g;
        tick ();
        Alcotest.(check int) "every edge's stream accepted"
          (List.length edges * file_bytes) (ok_exn (Graph.wait g));
        List.iter Kpath_net.Tcp.close conns;
        ctx)
  in
  ( List.map Buffer.to_bytes streams,
    Graph.ctx_stats ctx,
    Kpath_net.Tcp.view_chunks (Option.get !net) )

(* How many bytes of [stream] differ from the writer pattern, with
   [f i byte] applied to the pattern's byte at stream offset [i]. *)
let stream_errors ?(f = fun _ c -> c) stream =
  let bad = ref 0 in
  Bytes.iteri
    (fun i c -> if c <> f i (Programs.pattern_byte i) then incr bad)
    stream;
  !bad

let test_tcp_runs_one_request_per_cluster () =
  (* An 8-client fan-out from a cold RZ58: each edge writes every read
     cluster that completes as one run, so the edges make about one
     clustered write request per clustered read each, and every stream
     arrives whole and in order. *)
  let clients = 8 and file_bytes = 1024 * 1024 in
  let streams, stats, views =
    tcp_fanout ~disk:`Rz58 ~file_bytes (List.init clients (fun _ -> []))
  in
  List.iteri
    (fun i stream ->
      Alcotest.(check int) (Printf.sprintf "client %d: whole stream" i)
        file_bytes (Bytes.length stream);
      Alcotest.(check int) (Printf.sprintf "client %d: byte-exact" i) 0
        (stream_errors stream))
    streams;
  let get = Stats.get stats in
  let reads = get "graph.cluster_reads" and writes = get "graph.cluster_writes" in
  Alcotest.(check int) "every block written on every edge"
    (clients * file_bytes / block_size) (get "graph.writes_issued");
  Alcotest.(check bool)
    (Printf.sprintf
       "about one clustered write per clustered read per edge (%d reads, %d \
        writes)"
       reads writes)
    true
    (reads > 0
    && writes >= clients * (reads - 1)
    && writes <= clients * (reads + 1));
  Alcotest.(check int) "every payload reference released" 0 views

let test_tcp_runs_mix_copies_and_views () =
  (* Three edges share every block: a plain one streams views of the
     shared areas, one through xor_stream sends its private copies, and
     one that flips the first byte of odd blocks alone mixes copies and
     views within its runs. Each stream keeps the source's order, each
     carries its own edge's bytes, and every area lent to a copy comes
     back. *)
  let key = 0x6b in
  let key_byte lblk = ((lblk + 1) * 0x9e3779b9) lxor key land 0xff in
  let flip_odd =
    prog
      "fuel 16\n\
      \    blkno r0\n\
      \    rem r0, 2\n\
      \    jeq r0, 0, keep\n\
      \    ldp r1, 0\n\
      \    xor r1, 0xff\n\
      \    stp 0, r1\n\
       keep:\n\
      \    ret\n"
  in
  let file_bytes = 512 * 1024 in
  let nblocks = file_bytes / block_size in
  let streams, stats, views =
    tcp_fanout ~file_bytes
      [ []; [ Graph.Prog (Samples.xor_stream ~key) ]; [ Graph.Prog flip_odd ] ]
  in
  let xor k c = Char.chr (Char.code c lxor k) in
  let expect =
    [
      (fun _ c -> c);
      (fun i c -> xor (key_byte (i / block_size)) c);
      (fun i c ->
        if (i / block_size) mod 2 = 1 && i mod block_size = 0 then xor 0xff c
        else c);
    ]
  in
  List.iteri
    (fun i (stream, f) ->
      Alcotest.(check int) (Printf.sprintf "edge %d: whole stream" i)
        file_bytes (Bytes.length stream);
      Alcotest.(check int) (Printf.sprintf "edge %d: in order" i) 0
        (stream_errors ~f stream))
    (List.combine streams expect);
  let get = Stats.get stats in
  Alcotest.(check bool) "runs were written" true
    (get "graph.cluster_writes" > 0);
  Alcotest.(check int) "an area lent per copy" (nblocks + (nblocks / 2))
    (get "graph.areas_out");
  Alcotest.(check int) "every area came back" (get "graph.areas_out")
    (get "graph.areas_back");
  Alcotest.(check int) "every payload reference released" 0 views

let test_tcp_runs_stalled_reader_bound () =
  (* One of two readers stalls for a second behind its full socket
     buffers: its edge's run requests stop completing, reach the write
     watermark and stop the source's reads, so the blocks the graph
     holds stay within the default watermarks' 11 requests of at most
     max_cluster blocks each (88 at the defaults). Both streams then
     arrive whole. *)
  let max_pinned = ref 0 in
  let bound =
    flowctl_bound * Config.decstation_5000_200.Config.max_cluster
  in
  let streams, _, views =
    tcp_fanout ~stall:(Time.sec 1)
      ~sample:(fun g -> max_pinned := max !max_pinned (Graph.pinned_blocks g))
      [ []; [] ]
  in
  List.iter
    (fun stream -> Alcotest.(check int) "byte-exact" 0 (stream_errors stream))
    streams;
  Alcotest.(check bool)
    (Printf.sprintf "flow control bounds held blocks (max %d, bound %d)"
       !max_pinned bound)
    true
    (!max_pinned <= bound && !max_pinned > 0);
  Alcotest.(check int) "every payload reference released" 0 views

(* {1 Stream order}

   Every edge drains its staged blocks in stream order, whatever its
   sink. A cache hit can complete before the reads issued ahead of it:
   block 3 of a cold RZ58 source is cached, so it hits while the reads
   of blocks 0 and 1-2 are still on the disk, and it waits for them. *)

(* One edge from the 256 KB source, with block 3 cached, to the sink
   [make_sink s m] builds; [check s] runs in the process once the graph
   has finished. Returns the graph's write-done trace lines, once the
   machine has run dry. *)
let warm_hit_edge ?(check = ignore) make_sink =
  let file_bytes = 256 * 1024 in
  with_rig ~disk:`Rz58 ~file_bytes (fun s m ctx ->
      warm_blocks s [ 3 ];
      Trace.enable (Machine.trace m) "graph";
      let src_fs, src_ino = src_file s in
      let g = Graph.create ctx ~fs:src_fs ~ino:src_ino () in
      ignore (Graph.connect g (make_sink s m));
      Graph.start g;
      Alcotest.(check int) "whole stream accepted" file_bytes
        (ok_exn (Graph.wait g));
      Alcotest.(check int) "the cached block hit" 1
        (Stats.get (Graph.ctx_stats ctx) "graph.read_hits");
      check s;
      List.filter_map
        (fun e ->
          if Util.contains e.Trace.ev_msg "write done" then Some e.Trace.ev_msg
          else None)
        (Trace.events (Machine.trace m)))

(* The block range a write-done trace line names: "0" or "1..3". *)
let write_range msg =
  let rec after = function
    | "lblk" :: range :: _ -> range
    | _ :: rest -> after rest
    | [] -> Alcotest.failf "no block range in %S" msg
  in
  after (String.split_on_char ' ' msg)

let test_stream_order_after_cache_hit () =
  let file_bytes = 256 * 1024 in
  let in_order what stream =
    Alcotest.(check int) (what ^ ": whole stream") file_bytes
      (Bytes.length stream);
    Alcotest.(check int) (what ^ ": in order") 0 (stream_errors stream)
  in
  let tcp () =
    let streams, stats, views =
      tcp_fanout ~disk:`Rz58 ~file_bytes ~warm:[ 3 ] [ []; [] ]
    in
    Alcotest.(check int) "tcp: the cached block hit" 1
      (Stats.get stats "graph.read_hits");
    List.iter (in_order "tcp") streams;
    Alcotest.(check int) "every payload reference released" 0 views
  in
  let dac () =
    let cd = ref None in
    ignore
      (warm_hit_edge (fun _ m ->
           let d =
             Kpath_dev.Chardev.create ~name:"dac" ~drain_rate:2e6
               ~fifo_capacity:(32 * 1024) ~engine:(Machine.engine m)
               ~intr:(Machine.intr m) ()
           in
           cd := Some d;
           Endpoint.Dst_chardev d));
    in_order "dac"
      (Bytes.of_string (Kpath_dev.Chardev.captured (Option.get !cd)))
  in
  let udp () =
    let got = Buffer.create file_bytes in
    ignore
      (warm_hit_edge (fun _ m ->
           let net =
             Kpath_net.Netif.create_net ~bandwidth:40e6 (Machine.engine m)
           in
           let attach name =
             Kpath_net.Netif.attach net ~name ~intr:(Machine.intr m) ()
           in
           let a = attach "a" and b = attach "b" in
           let rx = Kpath_net.Udp.create b ~port:9 () in
           Kpath_net.Udp.set_upcall rx
             (Some (fun d -> Buffer.add_bytes got d.Kpath_net.Udp.d_payload));
           Endpoint.Dst_socket
             { sock = Kpath_net.Udp.create a ~port:7 ();
               dst = Kpath_net.Udp.addr rx }));
    in_order "udp" (Buffer.to_bytes got)
  in
  let file () =
    let c0 = ref None in
    let writes =
      warm_hit_edge
        ~check:(fun _ ->
          let dfs, ino = Option.get !c0 in
          Fs.fsync dfs ino;
          check_pattern dfs ino ~segments:[ (0, file_bytes) ])
        (fun s _ ->
          let dfs = dst_fs s in
          let ino = Fs.create_file dfs "/c0" in
          c0 := Some (dfs, ino);
          Endpoint.dst_file dfs ino ())
    in
    (* The hit joins the run before it: blocks 0-3 in two requests. *)
    Alcotest.(check (list string)) "file: the first write requests"
      [ "0"; "1..3" ]
      (List.filteri (fun i _ -> i < 2) (List.map write_range writes))
  in
  List.iter (fun input -> input ()) [ tcp; dac; udp; file ]

let suite =
  [
    Alcotest.test_case "fan-out to files" `Quick test_fanout_to_files;
    Alcotest.test_case "fan-out TCP single-read invariant" `Quick
      test_fanout_tcp_single_read_invariant;
    Alcotest.test_case "checksum filter" `Quick test_checksum_filter;
    Alcotest.test_case "tee filter" `Quick test_tee_filter;
    Alcotest.test_case "throttle + window bound" `Quick test_throttle_and_window;
    Alcotest.test_case "throttle rate validated" `Quick
      test_throttle_rate_validated;
    Alcotest.test_case "per-edge flow control" `Quick test_per_edge_flow_control;
    Alcotest.test_case "abort edge mid-stream" `Quick test_abort_edge_midstream;
    Alcotest.test_case "slow TCP peer cut loose" `Quick
      test_slow_tcp_peer_cut_loose;
    Alcotest.test_case "abort graph mid-stream" `Quick
      test_abort_graph_midstream;
    Alcotest.test_case "out-of-order release" `Quick test_out_of_order_release;
    Alcotest.test_case "chardev sink" `Quick test_chardev_sink;
    Alcotest.test_case "empty source" `Quick test_empty_source;
    Alcotest.test_case "sparse source rejected" `Quick
      test_sparse_source_rejected;
    Alcotest.test_case "syscall negative size" `Quick
      test_syscall_negative_size;
    Alcotest.test_case "source read error" `Quick test_source_read_error;
    Alcotest.test_case "sink write error" `Quick test_sink_write_error;
    Alcotest.test_case "closed TCP sink" `Quick test_closed_tcp_sink;
    Alcotest.test_case "syscall topologies" `Quick test_syscall_shapes;
    Alcotest.test_case "splice(2) is a one-edge graph" `Quick
      test_splice_is_one_edge_graph;
    Alcotest.test_case "trace and stats" `Quick test_trace_and_stats;
    Alcotest.test_case "block latency covers the read" `Quick
      test_block_latency_covers_read;
    Alcotest.test_case "prog checksum bit-identical" `Quick
      test_prog_checksum_bit_identical;
    Alcotest.test_case "prog backend parity through the machine" `Quick
      test_prog_backend_parity;
    Alcotest.test_case "prog drop accounting" `Quick test_prog_drop_accounting;
    Alcotest.test_case "prog fault mid-cluster" `Quick
      test_prog_fault_mid_cluster;
    Alcotest.test_case "prog transform is copy-on-write" `Quick
      test_prog_transform_cow;
    Alcotest.test_case "prog redirect routes blocks" `Quick
      test_prog_redirect_routes_blocks;
    Alcotest.test_case "prog negative redirect kills the edge" `Quick
      test_prog_negative_redirect;
    Alcotest.test_case "prog emits and read-only probe" `Quick
      test_prog_emits_and_readonly;
    Alcotest.test_case "syscall prog_load" `Quick test_syscall_prog_load;
    Alcotest.test_case "areas recycled across a long copy" `Quick
      test_areas_recycled;
    Alcotest.test_case "areas come back on every path" `Quick
      test_areas_return_on_every_path;
    Alcotest.test_case "fan-out snapshots copy nothing" `Quick
      test_fanout_snapshots_copy_nothing;
    Alcotest.test_case "TCP runs: one request per cluster" `Quick
      test_tcp_runs_one_request_per_cluster;
    Alcotest.test_case "TCP runs: copies and views keep stream order" `Quick
      test_tcp_runs_mix_copies_and_views;
    Alcotest.test_case "TCP runs: a stalled reader holds the block bound"
      `Quick test_tcp_runs_stalled_reader_bound;
    Alcotest.test_case "stream order: a cache hit waits for earlier reads"
      `Quick test_stream_order_after_cache_hit;
  ]
