(* The three workloads. Each [run] is one iteration: fresh machines, the
   measured transfers, and the checks on their output. *)

open Kpath_sim
open Kpath_proc
open Kpath_buf
open Kpath_fs
open Kpath_net
open Kpath_kernel
open Kpath_graph
open Kpath_workloads
open Rig

let disk_name = function `Ram -> "ram" | `Rz58 -> "rz58"

(* {1 paper-tables: §6 Tables 1 and 2 on the RAM disk and the RZ58} *)

(* The cells the paper's transcription retains (the RZ rows of Table 2
   were lost). *)
let paper_cells =
  [
    ("f_cp.ram", 2.00); ("f_scp.ram", 1.25);
    ("f_cp.rz58", 1.67); ("f_scp.rz58", 1.25);
    ("cp_kbps.ram", 1884.0); ("scp_kbps.ram", 3343.0);
  ]

let table1_ops = 2000
let table1_pace = 1.0e6

(* The test program alone on an idle machine: Table 1's baseline. *)
let idle_seconds it =
  let m = Machine.create ~config () in
  let stats = Programs.fresh_test_stats () in
  let _p = Programs.spawn_test_program m ~ops:table1_ops stats in
  in_measure it (fun () -> Span.host "sim.run" (fun () -> Machine.run m));
  match stats.Programs.test_finished with
  | Some t -> Time.to_sec_f t
  | None -> failwith "idle test program did not finish"

(* Table 2: one cold copy on an otherwise idle machine. Returns its
   simulated KB/s, and the copier's CPU and bytes. *)
let table2_cell it data ~disk ~mode =
  let r = copy_rig it ~disk data in
  let c = fresh_copy () in
  measured it [ r ] (fun () ->
      let _p = spawn_copier r ~mode c in
      Machine.run r.m);
  if c.copies <> 1 then error it "table 2 copy did not complete";
  verify_file it r ~path:"/dst/copy" data;
  let seconds = Time.to_sec_f (Time.diff c.finished c.started) in
  busy_over_elapsed it ~cpu_s:(Time.to_sec_f c.cpu) ~seconds;
  (float_of_int c.bytes /. 1024.0 /. seconds, c)

(* Table 1: slowdown of the test program while a paced copy loop
   contends. *)
let table1_cell it data ~idle ~disk ~mode =
  let r = copy_rig it ~disk data in
  let c = fresh_copy () in
  let stop = ref false in
  let stats = Programs.fresh_test_stats () in
  measured it [ r ] (fun () ->
      let _p = spawn_copier r ~mode ~pace:table1_pace ~stop c in
      let test = Programs.spawn_test_program r.m ~ops:table1_ops stats in
      Sched.exit_hook test (fun () -> stop := true);
      Machine.run r.m);
  busy_over_elapsed it ~cpu_s:(Time.to_sec_f c.cpu)
    ~seconds:(Time.to_sec_f (Time.diff c.finished c.started));
  (* The loop stops after a complete copy, so the destination is whole. *)
  verify_file it r ~path:"/dst/copy" data;
  match stats.Programs.test_finished with
  | Some t ->
    Time.to_sec_f (Time.diff t stats.Programs.test_started) /. idle
  | None ->
    error it "loaded test program did not finish";
    nan

let paper it data =
  let idle = idle_seconds it in
  let t2_cpu = ref Time.zero and t2_bytes = ref 0 and log_kbps = ref 0.0 in
  List.iter
    (fun disk ->
      let d = disk_name disk in
      List.iter
        (fun (mode, name) ->
          let kbps, c = table2_cell it data ~disk ~mode in
          set it (name ^ "_kbps." ^ d) kbps;
          log_kbps := !log_kbps +. log kbps;
          t2_cpu := Time.add !t2_cpu c.cpu;
          t2_bytes := !t2_bytes + c.bytes;
          bump it "bytes_moved" c.bytes)
        [ (`Scp, "scp"); (`Cp, "cp") ];
      List.iter
        (fun (mode, name) ->
          set it (name ^ "." ^ d) (table1_cell it data ~idle ~disk ~mode))
        [ (`Cp, "f_cp"); (`Scp, "f_scp") ])
    [ `Ram; `Rz58 ];
  let err =
    List.fold_left
      (fun a (name, paper) -> a +. (Float.abs (value it name -. paper) /. paper))
      0.0 paper_cells
  in
  set it "paper_err_pct" (100.0 *. err /. float_of_int (List.length paper_cells));
  (* Every Table 2 copy is bound by its device or its CPU path, never
     overcommitted, so its plain KB/s is the capacity-capped rate. *)
  set it "sim_kbps" (exp (!log_kbps /. 4.0));
  set it "sim_cpu_ms_per_mb"
    (Time.to_sec_f !t2_cpu *. 1000.0 /. (float_of_int !t2_bytes /. mb))

(* {1 fanout-tcp: one RZ58 file to 8 TCP readers through a splice graph} *)

let fanout_clients = 8
let fanout_bandwidth = 40.0e6

(* [Experiments.measure_fanout ~clients:8 ~file_bytes:8 MB ~bandwidth:40 MB/s]
   with the benchmark's file bytes, its set-up/measure boundary marked,
   and every counter of both machines and the server's connections read
   around the measured phase. *)
let fanout it data =
  let t_begin = Span.host_now () in
  let engine = Engine.create ~backend:config.Config.sim_engine ~tick:config.Config.callout_tick () in
  let server = Machine.create ~config ~engine () in
  let client = Machine.create ~config ~engine () in
  let net = Netif.create_net ~bandwidth:fanout_bandwidth engine in
  let srv_if = Netif.attach net ~name:"srv0" ~intr:(Machine.intr server) () in
  let cli_if = Netif.attach net ~name:"cli0" ~intr:(Machine.intr client) () in
  let nblocks = max 4096 ((file_bytes / block_size) + 64) in
  let drive = Machine.make_drive server ~name:"rz58-0" ~kind:`Rz58 ~nblocks () in
  let srv = { m = server; drives = [ drive ]; fss = [] } in
  let cli = { m = client; drives = []; fss = [] } in
  let rigs = [ srv; cli ] in
  let netif_counts () =
    let s = Netif.stats srv_if and c = Netif.stats cli_if in
    ( Stats.get s "netif.tx_bytes",
      Stats.get s "netif.dropped_no_rx" + Stats.get c "netif.dropped_no_rx" )
  in
  let setup_end = ref nan and before = ref None and netif0 = ref (0, 0) in
  let started = ref Time.zero and finished = ref Time.zero in
  let received = Array.make fanout_clients 0 in
  let corrupt = Array.make fanout_clients 0 in
  let server_cpu = ref Time.zero and pinned = ref (-1) and graph_bytes = ref 0 in
  let conns = ref [] in
  let _srv =
    Machine.spawn server ~name:"fanout-server" (fun () ->
        let t0 = Span.host_now () in
        let fs = Fs.mkfs ~cache:(Machine.cache server) (Machine.blkdev drive) ~ninodes:16 in
        Span.record "setup.mkfs" t0 (Span.host_now ());
        srv.fss <- [ fs ];
        Machine.mount server "/" fs;
        let env = Syscall.make_env server in
        let t0 = Span.host_now () in
        write_file env "/data" [ Syscall.O_CREAT; Syscall.O_WRONLY ] data;
        Span.record "setup.write" t0 (Span.host_now ());
        Cache.invalidate_dev (Machine.cache server) (Machine.blkdev drive);
        (* Set-up ends here; the clients have been retrying their
           connects meanwhile, exactly as in the CLI's run. *)
        setup_end := Span.host_now ();
        before := Some (mark rigs);
        netif0 := netif_counts ();
        let l = Syscall.tcp_listen env srv_if ~port:80 in
        let cfds =
          List.init fanout_clients (fun _ ->
              sys env "syscall.accept" (fun () -> Syscall.tcp_accept env l))
        in
        started := Engine.now engine;
        let cpu0 = Cpu.busy (cpu srv) in
        let src = openf env "/data" [ Syscall.O_RDONLY ] in
        graph_bytes :=
          sys env "syscall.splice_graph" (fun () ->
              Syscall.splice_graph env ~srcs:[ src ] ~dsts:cfds Syscall.splice_eof);
        pinned := Cache.pinned_count (Machine.cache server);
        conns := List.map (Syscall.tcp_conn env) cfds;
        close env src;
        List.iter (close env) cfds;
        server_cpu := Time.diff (Cpu.busy (cpu srv)) cpu0)
  in
  for i = 0 to fanout_clients - 1 do
    ignore
      (Machine.spawn client ~name:(Printf.sprintf "client%d" i) (fun () ->
           let env = Syscall.make_env client in
           let rec connect attempts =
             match
               sys env "syscall.connect" (fun () ->
                   Syscall.tcp_connect env cli_if ~port:(1000 + i)
                     ~dst:{ Tcp.a_if = Netif.id srv_if; a_port = 80 }
                     ~rcvbuf:(512 * 1024) ())
             with
             | fd -> fd
             | exception Errno.Unix_error (Errno.EIO, _) when attempts > 0 ->
               connect (attempts - 1)
           in
           let fd = connect 5 in
           let buf = Bytes.create 8192 in
           let rec drain () =
             let n = read env fd buf ~len:8192 in
             if n > 0 then begin
               let bad =
                 Span.host "verify" (fun () ->
                     mismatches buf ~pos:0 ~len:n data ~off:received.(i))
               in
               corrupt.(i) <- corrupt.(i) + bad;
               received.(i) <- received.(i) + n;
               if Time.(Engine.now engine > !finished) then finished := Engine.now engine;
               drain ()
             end
           in
           drain ();
           close env fd))
  done;
  Machine.run server;
  let t_end = Span.host_now () in
  it.setup_s <- it.setup_s +. (!setup_end -. t_begin);
  it.host_s <- it.host_s +. (t_end -. !setup_end);
  Span.record "sim.run" !setup_end t_end;
  (match !before with
   | Some b ->
     settle it rigs b;
     let tx0, drop0 = !netif0 in
     let tx, drop = netif_counts () in
     bump it "netif.tx_bytes" (tx - tx0);
     bump it "netif.dropped_no_rx" (drop - drop0);
     let window = Time.to_sec_f (Time.diff (Engine.now engine) b.k_now) in
     set it "netif.tx_over_capacity"
       (float_of_int (tx - tx0) /. (fanout_bandwidth *. window))
   | None -> error it "fan-out server never finished set-up");
  List.iter
    (fun c ->
      let s = Tcp.stats c in
      List.iter
        (fun n -> bump it n (Stats.get s n))
        [ "tcp.segs_out"; "tcp.retx"; "tcp.fast_retx" ])
    !conns;
  if !pinned <> 0 then error it "buffers still pinned after the graph";
  Array.iteri
    (fun i n -> checked it (n = file_bytes && corrupt.(i) = 0))
    received;
  let total = Array.fold_left ( + ) 0 received in
  if !graph_bytes <> total then error it "graph delivered bytes differ from client bytes";
  bump it "bytes_moved" total;
  let seconds = Time.to_sec_f (Time.diff !finished !started) in
  let cpu_s = Time.to_sec_f !server_cpu in
  let kb = float_of_int total /. 1024.0 in
  set it "fanout_kbps" (kb /. seconds);
  set it "sim_kbps" (kb /. Float.max seconds cpu_s);
  set it "sim_cpu_ms_per_mb" (cpu_s *. 1000.0 /. (float_of_int total /. mb));
  set it "fanout_seconds" seconds;
  busy_over_elapsed it ~cpu_s ~seconds;
  let segs = counter it "tcp.segs_out" in
  if segs > 0 then
    set it "tcp.retx_ratio" (float_of_int (counter it "tcp.retx") /. float_of_int segs);
  let tx = counter it "netif.tx_bytes" in
  if tx > 0 then set it "netif.goodput_ratio" (float_of_int total /. float_of_int tx)

(* {1 filter-graph: a cold RAM-disk splice-graph copy through a VM chain} *)

(* Checksum (fold), xor-stream twice (scatter with copy-on-write; the
   pair is the identity), histogram and dedup chunking, in that order. *)
let filter_sources ~key =
  [
    ("checksum", Kpath_vm.Samples.checksum_src);
    ("xor_stream", Kpath_vm.Asm.print (Kpath_vm.Samples.xor_stream ~key));
    ("xor_stream", Kpath_vm.Asm.print (Kpath_vm.Samples.xor_stream ~key));
    ("histogram", Kpath_vm.Samples.histogram_src);
    ("dedup_chunks", Kpath_vm.Asm.print (Kpath_vm.Samples.dedup_chunks ~bits:11));
  ]

(* What the chain must report for [data]: the built-in checksum of the
   file, and each block's count of distinct byte values. *)
type expect = { checksum : int; distinct : int list }

let expect data =
  let nblk = Bytes.length data / block_size in
  let checksum = ref 0 and distinct = ref [] in
  let seen = Array.make 256 false in
  for b = 0 to nblk - 1 do
    let blk = Bytes.sub data (b * block_size) block_size in
    checksum := !checksum lxor Graph.block_checksum ~lblk:b blk block_size;
    Array.fill seen 0 256 false;
    Bytes.iter (fun ch -> seen.(Char.code ch) <- true) blk;
    distinct := Array.fold_left (fun a s -> if s then a + 1 else a) 0 seen :: !distinct
  done;
  { checksum = !checksum; distinct = List.sort compare !distinct }

(* Run the loaded chain straight through [Compile] over every block of
   [data]: host time per VM instruction, outside the simulation. *)
let vm_direct it progs data =
  let codes = List.map Kpath_vm.Compile.compile progs in
  let states = List.map Kpath_vm.Compile.new_state codes in
  let blk = Bytes.create block_size in
  let steps = ref 0 in
  let emit _ _ = () in
  let t0 = Span.host_now () in
  for b = 0 to (Bytes.length data / block_size) - 1 do
    Bytes.blit data (b * block_size) blk 0 block_size;
    ignore
      (List.fold_left2
         (fun cur code st ->
           let r = Kpath_vm.Compile.exec code st ~data:cur ~len:block_size ~lblk:b ~emit in
           steps := !steps + r.Kpath_vm.Vm.r_steps;
           r.Kpath_vm.Vm.r_data)
         blk codes states)
  done;
  Span.record "vm.exec" t0 (Span.host_now ());
  it.vm_exec_insns <- !steps

let filter it data ~key ~expected =
  let r = copy_rig it ~disk:`Ram data in
  let m = r.m in
  let progs = ref [] and outcome = ref (Error "not run") in
  let seconds = ref 0.0 and cpu_s = ref 0.0 in
  let checksum = ref None and emits = ref [] in
  measured it [ r ] (fun () ->
      let _p =
        Machine.spawn m ~name:"filter-copy" (fun () ->
            let env = Syscall.make_env m in
            progs :=
              List.map
                (fun (name, text) ->
                  let t0 = Span.host_now () in
                  let p =
                    sys env "syscall.prog_load" (fun () -> Syscall.prog_load env text)
                  in
                  Span.record "vm.load" t0 (Span.host_now ());
                  match p with
                  | Ok p -> p
                  | Error e -> failwith (name ^ " rejected: " ^ e))
                (filter_sources ~key);
            let src = openf env "/src/data" [ Syscall.O_RDONLY ] in
            let dst = openf env "/dst/copy" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
            let cpu0 = Cpu.busy (cpu r) and t0 = Machine.now m in
            let g =
              sys env "syscall.splice_graph" (fun () ->
                  Syscall.splice_graph_start env ~srcs:[ src ] ~dsts:[ dst ]
                    ~filters:(List.map (fun p -> Graph.Prog p) !progs)
                    Syscall.splice_eof)
            in
            outcome := sys env "syscall.graph_wait" (fun () -> Graph.wait g);
            seconds := Time.to_sec_f (Time.diff (Machine.now m) t0);
            cpu_s := Time.to_sec_f (Time.diff (Cpu.busy (cpu r)) cpu0);
            (match Graph.edges g with
             | [ e ] ->
               checksum := Graph.edge_checksum e;
               emits := Graph.edge_emits e
             | _ -> ());
            fsync env dst;
            close env src;
            close env dst)
      in
      Machine.run m);
  (match !outcome with
   | Ok _ -> ()
   | Error e -> error it ("filter graph failed: " ^ e));
  if Cache.pinned_count (Machine.cache m) <> 0 then
    error it "buffers still pinned after the graph";
  if !checksum <> Some expected.checksum then
    error it "filter-chain checksum differs from the built-in Checksum";
  let keyed k = List.filter_map (fun (k', v) -> if k' = k then Some v else None) !emits in
  if List.sort compare (keyed 4) <> expected.distinct then
    error it "histogram emits differ from the file's byte histograms";
  set it "dedup_chunks" (float_of_int (List.length (keyed 3)));
  verify_file it r ~path:"/dst/copy" data;
  bump it "bytes_moved" file_bytes;
  let kb = float_of_int file_bytes /. 1024.0 in
  (* Until interrupt work queues on the CPU, the chain's simulated CPU
     exceeds the copy's elapsed time; rate the copy by whichever is
     longer. *)
  set it "filter_seconds" !seconds;
  busy_over_elapsed it ~cpu_s:!cpu_s ~seconds:!seconds;
  set it "sim_kbps" (kb /. Float.max !seconds !cpu_s);
  set it "sim_cpu_ms_per_mb" (!cpu_s *. 1000.0 /. (float_of_int file_bytes /. mb));
  if !Span.on then vm_direct it !progs data
