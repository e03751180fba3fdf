open Kpath_sim
open Kpath_buf
open Kpath_fs
open Kpath_net
open Kpath_proc
open Kpath_core
open Kpath_kernel

type disk_kind = [ `Ram | `Rz56 | `Rz58 ]

let disk_name = function `Ram -> "RAM" | `Rz56 -> "RZ56" | `Rz58 -> "RZ58"

type setup = {
  machine : Machine.t;
  src_path : string;
  dst_path : string;
  file_bytes : int;
  drives : Machine.drive list;  (* [src; dst] — dst aliases src when same_disk *)
}

(* Drives must hold the file plus metadata; the RAM disk is fixed at
   16 MB, so same-disk RAM setups get a doubled device. *)
let drive_blocks ~config ~disk ~file_bytes ~same_disk =
  let bs = config.Config.block_size in
  let need = (file_bytes / bs * (if same_disk then 2 else 1)) + 64 in
  match disk with
  | `Ram -> Some (max config.Config.ramdisk_blocks need)
  | `Rz56 | `Rz58 -> Some (max 4096 need)

let make_setup ~disk ?(file_bytes = 8 * 1024 * 1024) ?(same_disk = false)
    ?disk_queue ?(machine_config = Config.decstation_5000_200) () =
  let m = Machine.create ~config:machine_config () in
  let nblocks =
    drive_blocks ~config:machine_config ~disk ~file_bytes ~same_disk
  in
  let d0 =
    Machine.make_drive m ~name:"disk0" ~kind:disk ?nblocks ?queue:disk_queue ()
  in
  let d1 =
    if same_disk then d0
    else Machine.make_drive m ~name:"disk1" ~kind:disk ?nblocks ?queue:disk_queue ()
  in
  let setup_done = ref false in
  let _init =
    Machine.spawn m ~name:"init" (fun () ->
        let fs0 = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d0) ~ninodes:64 in
        Machine.mount m "/src" fs0;
        (if same_disk then Machine.mount m "/dst" fs0
         else begin
           let fs1 =
             Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d1) ~ninodes:64
           in
           Machine.mount m "/dst" fs1
         end);
        setup_done := true)
  in
  Machine.run m;
  if not !setup_done then failwith "experiment setup failed";
  let writer_done = ref false in
  let writer =
    Programs.spawn_file_writer m ~path:"/src/data" ~bytes:file_bytes ()
  in
  Sched.exit_hook writer (fun () -> writer_done := true);
  Machine.run m;
  if not !writer_done then failwith "source file creation failed";
  let s =
    {
      machine = m;
      src_path = "/src/data";
      dst_path = "/dst/copy";
      file_bytes;
      drives = [ d0; d1 ];
    }
  in
  s

let cold_caches s =
  let m = s.machine in
  let devs =
    List.filter_map
      (fun path -> Option.map (fun (fs, _) -> Fs.dev fs) (Machine.resolve m path))
      [ "/src"; "/dst" ]
  in
  List.iter (fun dev -> Cache.invalidate_dev (Machine.cache m) dev) devs

(* From a process on [m]: make a filesystem on [drive], mount it at /
   and write each [(path, bytes)] file with the verification pattern,
   64 KB per write, fsync'd and closed. Returns the process's system-call
   environment. *)
let make_pattern_fs m drive ~ninodes files =
  let fs = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive) ~ninodes in
  Machine.mount m "/" fs;
  let env = Syscall.make_env m in
  let chunk = Bytes.create 65536 in
  List.iter
    (fun (path, bytes) ->
      let fd = Syscall.openf env path [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      let rec fill off =
        if off < bytes then begin
          let n = min 65536 (bytes - off) in
          Programs.fill_pattern chunk ~file_off:off;
          ignore (Syscall.write env fd chunk ~pos:0 ~len:n);
          fill (off + n)
        end
      in
      fill 0;
      Syscall.fsync env fd;
      Syscall.close env fd)
    files;
  env

(* {1 Throughput (Table 2)} *)

type copy_measure = {
  cm_bytes : int;
  cm_seconds : float;
  cm_kb_per_sec : float;
  cm_verified : bool;
  cm_events : int;
}

let verify_dst s =
  let verdict = ref false in
  let v =
    Programs.spawn_verifier s.machine ~path:s.dst_path ~expect_bytes:s.file_bytes
      (fun ok -> verdict := ok)
  in
  Machine.run s.machine;
  if not (Kpath_proc.Process.is_zombie v) then failwith "verifier stuck";
  !verdict

let measure_copy ~mode ~disk ?file_bytes ?same_disk ?disk_queue
    ?machine_config ?config () =
  let s = make_setup ~disk ?file_bytes ?same_disk ?disk_queue ?machine_config () in
  cold_caches s;
  let stats = Programs.fresh_copy_stats () in
  let _copier =
    match mode with
    | `Cp -> Programs.spawn_cp s.machine ~src:s.src_path ~dst:s.dst_path stats
    | `Mcp -> Programs.spawn_mcp s.machine ~src:s.src_path ~dst:s.dst_path stats
    | `Scp -> Programs.spawn_scp s.machine ~src:s.src_path ~dst:s.dst_path ?config stats
  in
  Machine.run s.machine;
  if stats.Programs.copies_done < 1 then failwith "copy did not complete";
  let events = Engine.events_fired (Machine.engine s.machine) in
  let seconds =
    Time.to_sec_f (Time.diff stats.Programs.copy_finished stats.Programs.copy_started)
  in
  let verified = verify_dst s in
  {
    cm_bytes = stats.Programs.bytes_copied;
    cm_seconds = seconds;
    cm_kb_per_sec = float_of_int stats.Programs.bytes_copied /. 1024.0 /. seconds;
    cm_verified = verified;
    cm_events = events;
  }

type tput_row = {
  tp_disk : disk_kind;
  tp_scp_kbps : float;
  tp_cp_kbps : float;
  tp_pct_improvement : float;
}

let table2 ?file_bytes () =
  List.map
    (fun disk ->
      let scp = measure_copy ~mode:`Scp ~disk ?file_bytes () in
      let cp = measure_copy ~mode:`Cp ~disk ?file_bytes () in
      if not (scp.cm_verified && cp.cm_verified) then
        failwith ("table2: integrity check failed on " ^ disk_name disk);
      {
        tp_disk = disk;
        tp_scp_kbps = scp.cm_kb_per_sec;
        tp_cp_kbps = cp.cm_kb_per_sec;
        tp_pct_improvement =
          (scp.cm_kb_per_sec -. cp.cm_kb_per_sec) /. cp.cm_kb_per_sec *. 100.0;
      })
    [ `Ram; `Rz56; `Rz58 ]

(* {1 CPU availability (Table 1)} *)

type avail_row = {
  av_disk : disk_kind;
  av_f_cp : float;
  av_f_scp : float;
  av_improvement : float;
  av_pct : float;
}

let idle_seconds ~ops =
  let m = Machine.create () in
  let stats = Programs.fresh_test_stats () in
  let _p = Programs.spawn_test_program m ~ops stats in
  Machine.run m;
  match stats.Programs.test_finished with
  | Some t -> Time.to_sec_f t
  | None -> failwith "idle test program did not finish"

let slowdown ~mode ~disk ?file_bytes ?pace ?machine_config ~ops () =
  let s = make_setup ~disk ?file_bytes ?machine_config () in
  cold_caches s;
  let test_stats = Programs.fresh_test_stats () in
  let stop = ref false in
  let copy_stats = Programs.fresh_copy_stats () in
  let _copier =
    match mode with
    | `Cp ->
      Programs.spawn_cp s.machine ~src:s.src_path ~dst:s.dst_path ?pace
        ~loop_until:stop copy_stats
    | `Scp ->
      Programs.spawn_scp s.machine ~src:s.src_path ~dst:s.dst_path ?pace
        ~loop_until:stop copy_stats
  in
  let test = Programs.spawn_test_program s.machine ~ops test_stats in
  Sched.exit_hook test (fun () -> stop := true);
  Machine.run s.machine;
  match test_stats.Programs.test_finished with
  | Some t ->
    Time.to_sec_f (Time.diff t test_stats.Programs.test_started)
    /. idle_seconds ~ops
  | None -> failwith "loaded test program did not finish"

let table1 ?file_bytes ?(ops = 2000) ?(pace = Some 1.0e6) () =
  List.map
    (fun disk ->
      let f_cp = slowdown ~mode:`Cp ~disk ?file_bytes ?pace ~ops () in
      let f_scp = slowdown ~mode:`Scp ~disk ?file_bytes ?pace ~ops () in
      {
        av_disk = disk;
        av_f_cp = f_cp;
        av_f_scp = f_scp;
        av_improvement = f_cp /. f_scp;
        av_pct = (f_cp /. f_scp -. 1.0) *. 100.0;
      })
    [ `Ram; `Rz56; `Rz58 ]

let availability_timeline ~mode ~disk ?file_bytes ?pace ?(ops = 2000)
    ?(bucket = Time.ms 250) () =
  let s = make_setup ~disk ?file_bytes () in
  cold_caches s;
  let test_stats = Programs.fresh_test_stats () in
  let stop = ref false in
  let copy_stats = Programs.fresh_copy_stats () in
  let _copier =
    match mode with
    | `Cp ->
      Programs.spawn_cp s.machine ~src:s.src_path ~dst:s.dst_path ?pace
        ~loop_until:stop copy_stats
    | `Scp ->
      Programs.spawn_scp s.machine ~src:s.src_path ~dst:s.dst_path ?pace
        ~loop_until:stop copy_stats
  in
  let test = Programs.spawn_test_program s.machine ~ops test_stats in
  Sched.exit_hook test (fun () -> stop := true);
  (* Sample completed ops at bucket boundaries until the test exits. *)
  let samples = ref [] in
  let engine = Machine.engine s.machine in
  let rec sample prev =
    ignore
      (Engine.schedule_after engine bucket (fun () ->
           if test_stats.Programs.test_finished = None then begin
             let now_ops = test_stats.Programs.ops_done in
             samples := (now_ops - prev) :: !samples;
             sample now_ops
           end))
  in
  sample 0;
  Machine.run s.machine;
  List.rev !samples

(* {1 Cluster sweep (§7 "larger transfer units")} *)

let drive_serviced = function
  | Machine.Scsi d -> Kpath_dev.Disk.serviced d
  | Machine.Ram r -> Kpath_dev.Ramdisk.serviced r

type cluster_row = {
  cl_cluster : int;
  cl_disk : disk_kind;
  cl_scp_kbps : float;
  cl_intrs_per_mb : float;
  cl_f_scp : float;
}

let measure_cluster ~disk ?file_bytes ?(ops = 2000) ?(pace = Some 1.0e6)
    ~cluster () =
  let machine_config =
    { Config.decstation_5000_200 with max_cluster = cluster }
  in
  (* Throughput and device interrupts on an otherwise idle machine. *)
  let s = make_setup ~disk ?file_bytes ~machine_config () in
  cold_caches s;
  let before = List.fold_left (fun a d -> a + drive_serviced d) 0 s.drives in
  let stats = Programs.fresh_copy_stats () in
  let _copier = Programs.spawn_scp s.machine ~src:s.src_path ~dst:s.dst_path stats in
  Machine.run s.machine;
  if stats.Programs.copies_done < 1 then failwith "cluster copy did not complete";
  let seconds =
    Time.to_sec_f (Time.diff stats.Programs.copy_finished stats.Programs.copy_started)
  in
  let after = List.fold_left (fun a d -> a + drive_serviced d) 0 s.drives in
  if not (verify_dst s) then failwith "cluster copy corrupted the destination";
  let mb = float_of_int stats.Programs.bytes_copied /. (1024.0 *. 1024.0) in
  (* CPU availability: test-program slowdown under a paced scp loop. *)
  let f_scp = slowdown ~mode:`Scp ~disk ?file_bytes ?pace ~machine_config ~ops () in
  {
    cl_cluster = cluster;
    cl_disk = disk;
    cl_scp_kbps = float_of_int stats.Programs.bytes_copied /. 1024.0 /. seconds;
    cl_intrs_per_mb = float_of_int (after - before) /. mb;
    cl_f_scp = f_scp;
  }

let cluster_sweep ~disk ?file_bytes ?ops ?pace sizes =
  List.map (fun cluster -> measure_cluster ~disk ?file_bytes ?ops ?pace ~cluster ()) sizes

(* {1 Ablations} *)

let watermark_sweep ~disk ?file_bytes configs =
  List.map
    (fun config -> (config, measure_copy ~mode:`Scp ~disk ?file_bytes ~config ()))
    configs

let size_sweep ~disk sizes =
  List.map
    (fun file_bytes ->
      ( file_bytes,
        measure_copy ~mode:`Scp ~disk ~file_bytes (),
        measure_copy ~mode:`Cp ~disk ~file_bytes () ))
    sizes

(* {1 Continuous-media playback} *)

type media_measure = {
  md_frames : int;
  md_late_frames : int;
  md_audio_underruns : int;
  md_fps : float;
  md_player_cpu_sec : float;
}

let measure_media ~player ?(load = 0) ?(seconds = 5) ?(fps = 15) () =
  let m = Machine.create () in
  let drive = Machine.make_drive m ~name:"rz58-0" ~kind:`Rz58 () in
  let audio_rate = 64_000.0 (* 64 KB/s: 8 kHz 16-bit stereo-ish *) in
  let frame_bytes = 32 * 1024 in
  let audio_bytes = int_of_float audio_rate * seconds in
  let nframes = fps * seconds in
  let audio_dev =
    Kpath_dev.Chardev.create ~name:"speaker" ~drain_rate:audio_rate
      ~fifo_capacity:(32 * 1024) ~engine:(Machine.engine m)
      ~intr:(Machine.intr m) ()
  in
  let video_dev =
    Kpath_dev.Chardev.create ~name:"video"
      ~drain_rate:(float_of_int (frame_bytes * fps * 4))
      ~fifo_capacity:(4 * frame_bytes) ~engine:(Machine.engine m)
      ~intr:(Machine.intr m) ()
  in
  Machine.register_chardev m "/dev/speaker" audio_dev;
  Machine.register_chardev m "/dev/video" video_dev;
  let interval = Time.of_sec_f (1.0 /. float_of_int fps) in
  let frames = ref 0 and late = ref 0 in
  let done_flag = ref false in
  let video_done_at = ref Time.zero in
  let player_cpu = ref Time.zero in
  let charge (p : Process.t) =
    player_cpu := Time.add !player_cpu (Time.add p.Process.cpu_user p.Process.cpu_sys)
  in
  (* Media files. *)
  let _setup =
    Machine.spawn m ~name:"setup" (fun () ->
        ignore
          (make_pattern_fs m drive ~ninodes:32
             [
               ("/movie.audio", audio_bytes);
               ("/movie.video", nframes * frame_bytes);
             ]))
  in
  Machine.run m;
  Cache.invalidate_dev (Machine.cache m) (Machine.blkdev drive);
  (* Play one video frame per tick; a frame whose delivery overruns the
     tick is late. *)
  let video_body env deliver_frame =
    Syscall.sigaction env Signal.sigalrm (Some (fun () -> ()));
    Syscall.setitimer env (Some interval);
    let rec go k =
      if k < nframes then begin
        let t0 = Machine.now m in
        deliver_frame k;
        incr frames;
        if Time.(Time.diff (Machine.now m) t0 > interval) then incr late;
        Syscall.pause env;
        go (k + 1)
      end
    in
    go 0;
    Syscall.setitimer env None;
    video_done_at := Machine.now m
  in
  (match player with
   | `Splice ->
     (* The paper's single-process player (§4). *)
     let p =
       Machine.spawn m ~name:"splice-player" (fun () ->
           let env = Syscall.make_env m in
           let audiofile = Syscall.openf env "/movie.audio" [ Syscall.O_RDONLY ] in
           let videofile = Syscall.openf env "/movie.video" [ Syscall.O_RDONLY ] in
           let audio_fd = Syscall.openf env "/dev/speaker" [ Syscall.O_WRONLY ] in
           let video_fd = Syscall.openf env "/dev/video" [ Syscall.O_WRONLY ] in
           Syscall.fcntl_setfl env audiofile ~fasync:true;
           ignore
             (Syscall.splice env ~src:audiofile ~dst:audio_fd Syscall.splice_eof);
           video_body env (fun _k ->
               ignore (Syscall.splice env ~src:videofile ~dst:video_fd frame_bytes));
           done_flag := true)
     in
     Sched.exit_hook p (fun () -> charge p)
   | `Process ->
     (* Two pump processes, one per stream. *)
     let audio =
       Machine.spawn m ~name:"audiod" (fun () ->
           let env = Syscall.make_env m in
           let src = Syscall.openf env "/movie.audio" [ Syscall.O_RDONLY ] in
           let dst = Syscall.openf env "/dev/speaker" [ Syscall.O_WRONLY ] in
           let buf = Bytes.create 4096 in
           let rec go () =
             let n = Syscall.read env src buf ~pos:0 ~len:4096 in
             if n > 0 then begin
               ignore (Syscall.write env dst buf ~pos:0 ~len:n);
               go ()
             end
           in
           go ())
     in
     let video =
       Machine.spawn m ~name:"videod" (fun () ->
           let env = Syscall.make_env m in
           let src = Syscall.openf env "/movie.video" [ Syscall.O_RDONLY ] in
           let dst = Syscall.openf env "/dev/video" [ Syscall.O_WRONLY ] in
           let buf = Bytes.create frame_bytes in
           video_body env (fun _k ->
               let n = Syscall.read env src buf ~pos:0 ~len:frame_bytes in
               ignore (Syscall.write env dst buf ~pos:0 ~len:n));
           done_flag := true)
     in
     Sched.exit_hook audio (fun () -> charge audio);
     Sched.exit_hook video (fun () -> charge video));
  (* Background compute load. *)
  let rec spawn_load k =
    if k > 0 then begin
      ignore
        (Machine.spawn m ~name:(Printf.sprintf "hog%d" k) (fun () ->
             while not !done_flag do
               Process.use_cpu Process.User (Time.ms 1)
             done));
      spawn_load (k - 1)
    end
  in
  let start = Machine.now m in
  spawn_load load;
  Machine.run m;
  let play_time =
    let fin = if Time.(!video_done_at > start) then !video_done_at else Machine.now m in
    Time.to_sec_f (Time.diff fin start)
  in
  {
    md_frames = !frames;
    md_late_frames = !late;
    md_audio_underruns = Kpath_dev.Chardev.underruns audio_dev;
    md_fps = float_of_int !frames /. play_time;
    md_player_cpu_sec = Time.to_sec_f !player_cpu;
  }

(* {1 File serving over TCP} *)

type sendfile_measure = {
  sf_bytes : int;
  sf_verified : bool;
  sf_seconds : float;
  sf_kb_per_sec : float;
  sf_server_cpu_sec : float;
  sf_retransmits : int;
}

let measure_sendfile ~mode ?(file_bytes = 4 * 1024 * 1024) ?(loss = 0.0)
    ?(bandwidth = 2.5e6) ?(machine_config = Config.decstation_5000_200) () =
  let engine =
    Engine.create ~tick:machine_config.Config.callout_tick ()
  in
  let server = Machine.create ~config:machine_config ~engine () in
  let client = Machine.create ~config:machine_config ~engine () in
  let net = Netif.create_net ~bandwidth engine in
  (* [<>], not [>]: a NaN or negative [loss] must reach [set_loss]'s
     range check rather than silently run lossless. *)
  if loss <> 0.0 then Netif.set_loss net loss;
  let srv_if = Netif.attach net ~name:"srv0" ~intr:(Machine.intr server) () in
  let cli_if = Netif.attach net ~name:"cli0" ~intr:(Machine.intr client) () in
  let drive = Machine.make_drive server ~name:"rz58-0" ~kind:`Rz58 () in
  let retx = ref 0 in
  let started = ref Time.zero and finished = ref Time.zero in
  let received = ref 0 and corrupt = ref 0 in
  let server_cpu = ref Time.zero in
  (* Server: produce the file, then serve one connection. *)
  let _srv =
    Machine.spawn server ~name:"file-server" (fun () ->
        let env =
          make_pattern_fs server drive ~ninodes:16 [ ("/data", file_bytes) ]
        in
        Cache.invalidate_dev (Machine.cache server) (Machine.blkdev drive);
        let l = Syscall.tcp_listen env srv_if ~port:80 in
        let cfd = Syscall.tcp_accept env l in
        started := Engine.now engine;
        let cpu_mark = Cpu.busy (Sched.cpu (Machine.sched server)) in
        let src = Syscall.openf env "/data" [ Syscall.O_RDONLY ] in
        (match mode with
         | `Sendfile ->
           ignore (Syscall.splice env ~src ~dst:cfd Syscall.splice_eof)
         | `ReadWrite ->
           let buf = Bytes.create 8192 in
           let rec serve () =
             let n = Syscall.read env src buf ~pos:0 ~len:8192 in
             if n > 0 then begin
               ignore (Syscall.write env cfd buf ~pos:0 ~len:n);
               serve ()
             end
           in
           serve ());
        retx := Tcp.retransmits (Syscall.tcp_conn env cfd);
        Syscall.close env src;
        Syscall.close env cfd;
        server_cpu :=
          Time.diff (Cpu.busy (Sched.cpu (Machine.sched server))) cpu_mark)
  in
  (* Client: connect (retrying while the server is still preparing),
     drain the stream and verify every byte. *)
  let _cli =
    Machine.spawn client ~name:"client" (fun () ->
        let env = Syscall.make_env client in
        let rec try_connect attempts =
          match
            Syscall.tcp_connect env cli_if ~port:1000
              ~dst:{ Tcp.a_if = Netif.id srv_if; a_port = 80 }
              ()
          with
          | fd -> fd
          | exception Errno.Unix_error (Errno.EIO, _) when attempts > 0 ->
            try_connect (attempts - 1)
        in
        let fd = try_connect 3 in
        let buf = Bytes.create 8192 in
        let rec drain () =
          let n = Syscall.read env fd buf ~pos:0 ~len:8192 in
          if n > 0 then begin
            corrupt :=
              !corrupt
              + Programs.pattern_mismatches buf ~pos:0 ~len:n
                  ~file_off:!received;
            received := !received + n;
            finished := Engine.now engine;
            drain ()
          end
        in
        drain ();
        Syscall.close env fd)
  in
  Machine.run server;
  let seconds =
    if Time.(!finished > !started) then Time.to_sec_f (Time.diff !finished !started)
    else 0.0
  in
  {
    sf_bytes = !received;
    sf_verified =
      !corrupt = 0 && !received = file_bytes && Tcp.view_chunks net = 0;
    sf_seconds = seconds;
    sf_kb_per_sec =
      (if seconds > 0.0 then float_of_int !received /. 1024.0 /. seconds else 0.0);
    sf_server_cpu_sec = Time.to_sec_f !server_cpu;
    sf_retransmits = !retx;
  }

(* {1 Fan-out: one file to N TCP clients (splice graph)} *)

type fanout_measure = {
  fo_clients : int;
  fo_bytes_per_client : int;
  fo_verified : bool;
  fo_device_reads : int;
  fo_seconds : float;
  fo_agg_kb_per_sec : float;
  fo_server_cpu_sec : float;
  fo_pinned_after : int;
  fo_events : int;
  fo_prog_runs : int;
  fo_prog_insns : int;
  fo_retransmits : int;
  fo_persist_probes : int;
}

let measure_fanout ?(clients = 8) ?(file_bytes = 1024 * 1024)
    ?(bandwidth = 2.5e6) ?config ?filters ?window ?trace_json
    ?(machine_config = Config.decstation_5000_200) () =
  let engine =
    Engine.create ~tick:machine_config.Config.callout_tick ()
  in
  let server = Machine.create ~config:machine_config ~engine () in
  if trace_json <> None then Trace.enable (Machine.trace server) "graph";
  let client = Machine.create ~config:machine_config ~engine () in
  let net = Netif.create_net ~bandwidth engine in
  let srv_if = Netif.attach net ~name:"srv0" ~intr:(Machine.intr server) () in
  let cli_if = Netif.attach net ~name:"cli0" ~intr:(Machine.intr client) () in
  let bs = (Machine.config server).Config.block_size in
  let nblocks = max 4096 ((file_bytes / bs) + 64) in
  let drive =
    Machine.make_drive server ~name:"rz58-0" ~kind:`Rz58 ~nblocks ()
  in
  let started = ref Time.zero and finished = ref Time.zero in
  let received = Array.make clients 0 in
  let corrupt = ref 0 in
  let server_cpu = ref Time.zero in
  let device_reads = ref 0 in
  let pinned_after = ref 0 in
  let prog_runs = ref 0 and prog_insns = ref 0 in
  let conns = ref [] in
  (* Server: produce the file cold, accept every client, then stream the
     file to all of them with one splice graph — one disk pass. *)
  let _srv =
    Machine.spawn server ~name:"fanout-server" (fun () ->
        let env =
          make_pattern_fs server drive ~ninodes:16 [ ("/data", file_bytes) ]
        in
        Cache.invalidate_dev (Machine.cache server) (Machine.blkdev drive);
        let l = Syscall.tcp_listen env srv_if ~port:80 in
        let cfds = List.init clients (fun _ -> Syscall.tcp_accept env l) in
        started := Engine.now engine;
        let cpu_mark = Cpu.busy (Sched.cpu (Machine.sched server)) in
        let reads_mark =
          Stats.get (Cache.stats (Machine.cache server)) "cache.dev_reads"
        in
        let gstats =
          Kpath_graph.Graph.ctx_stats (Machine.graph_ctx server)
        in
        let runs_mark = Stats.get gstats "graph.prog_runs" in
        let insns_mark = Stats.get gstats "graph.prog_insns" in
        let src = Syscall.openf env "/data" [ Syscall.O_RDONLY ] in
        ignore
          (Syscall.splice_graph env ~srcs:[ src ] ~dsts:cfds ?config ?filters
             ?window Syscall.splice_eof);
        device_reads :=
          Stats.get (Cache.stats (Machine.cache server)) "cache.dev_reads"
          - reads_mark;
        prog_runs := Stats.get gstats "graph.prog_runs" - runs_mark;
        prog_insns := Stats.get gstats "graph.prog_insns" - insns_mark;
        pinned_after := Cache.pinned_count (Machine.cache server);
        conns := List.map (Syscall.tcp_conn env) cfds;
        Syscall.close env src;
        List.iter (Syscall.close env) cfds;
        server_cpu :=
          Time.diff (Cpu.busy (Sched.cpu (Machine.sched server))) cpu_mark)
  in
  (* Clients: one reader process per connection on the client machine,
     each draining and verifying its own copy of the pattern. *)
  for i = 0 to clients - 1 do
    ignore
      (Machine.spawn client ~name:(Printf.sprintf "client%d" i) (fun () ->
           let env = Syscall.make_env client in
           let rec try_connect attempts =
             match
               Syscall.tcp_connect env cli_if ~port:(1000 + i)
                 ~dst:{ Tcp.a_if = Netif.id srv_if; a_port = 80 }
                 ~rcvbuf:(512 * 1024) ()
             with
             | fd -> fd
             | exception Errno.Unix_error (Errno.EIO, _) when attempts > 0 ->
               try_connect (attempts - 1)
           in
           let fd = try_connect 5 in
           let buf = Bytes.create 8192 in
           let rec drain () =
             let n = Syscall.read env fd buf ~pos:0 ~len:8192 in
             if n > 0 then begin
               corrupt :=
                 !corrupt
                 + Programs.pattern_mismatches buf ~pos:0 ~len:n
                     ~file_off:received.(i);
               received.(i) <- received.(i) + n;
               if Time.(Engine.now engine > !finished) then
                 finished := Engine.now engine;
               drain ()
             end
           in
           drain ();
           Syscall.close env fd))
  done;
  Machine.run server;
  (match trace_json with
   | Some fmt -> Trace.dump_json fmt (Machine.trace server)
   | None -> ());
  let complete = Array.for_all (fun n -> n = file_bytes) received in
  let total = Array.fold_left ( + ) 0 received in
  let seconds =
    if Time.(!finished > !started) then Time.to_sec_f (Time.diff !finished !started)
    else 0.0
  in
  let sum_conns f = List.fold_left (fun acc c -> acc + f c) 0 !conns in
  {
    fo_clients = clients;
    fo_bytes_per_client = file_bytes;
    fo_verified = !corrupt = 0 && complete && Tcp.view_chunks net = 0;
    fo_device_reads = !device_reads;
    fo_seconds = seconds;
    fo_agg_kb_per_sec =
      (if seconds > 0.0 then float_of_int total /. 1024.0 /. seconds else 0.0);
    fo_server_cpu_sec = Time.to_sec_f !server_cpu;
    fo_pinned_after = !pinned_after;
    fo_events = Engine.events_fired engine;
    fo_prog_runs = !prog_runs;
    fo_prog_insns = !prog_insns;
    fo_retransmits = sum_conns Tcp.retransmits;
    fo_persist_probes = sum_conns Tcp.persist_probes;
  }

(* {1 Filter-program overhead — edge programs vs built-ins} *)

type prog_row = {
  pr_stage : string;
  pr_bytes : int;
  pr_seconds : float;
  pr_kb_per_sec : float;
  pr_cpu_sec : float;
  pr_runs : int;
  pr_insns : int;
  pr_checksum : int option;
  pr_verified : bool;
}

let measure_prog ~disk ?(file_bytes = 4 * 1024 * 1024) ~stage
    ?machine_config () =
  let s = make_setup ~disk ~file_bytes ?machine_config () in
  cold_caches s;
  let m = s.machine in
  let engine = Machine.engine m in
  let label, filters =
    match stage with
    | `Plain -> ("plain", [])
    | `Checksum -> ("checksum", [ Kpath_graph.Graph.Checksum ])
    | `Prog (name, ps) ->
      (name, List.map (fun p -> Kpath_graph.Graph.Prog p) ps)
  in
  let stats = Kpath_graph.Graph.ctx_stats (Machine.graph_ctx m) in
  let runs0 = Stats.get stats "graph.prog_runs" in
  let insns0 = Stats.get stats "graph.prog_insns" in
  let checksum = ref None in
  let cpu = ref Time.zero in
  let seconds = ref 0.0 in
  let _p =
    Machine.spawn m ~name:"prog-bench" (fun () ->
        let env = Syscall.make_env m in
        let src = Syscall.openf env s.src_path [ Syscall.O_RDONLY ] in
        let dst =
          Syscall.openf env s.dst_path [ Syscall.O_CREAT; Syscall.O_WRONLY ]
        in
        let cpu0 = Cpu.busy (Sched.cpu (Machine.sched m)) in
        let t0 = Engine.now engine in
        let g =
          Syscall.splice_graph_start env ~srcs:[ src ] ~dsts:[ dst ] ~filters
            Syscall.splice_eof
        in
        (match Kpath_graph.Graph.wait g with
         | Ok _ -> ()
         | Error e -> failwith ("measure_prog: " ^ e));
        seconds := Time.to_sec_f (Time.diff (Engine.now engine) t0);
        cpu := Time.diff (Cpu.busy (Sched.cpu (Machine.sched m))) cpu0;
        (match Kpath_graph.Graph.edges g with
         | [ e ] -> checksum := Kpath_graph.Graph.edge_checksum e
         | _ -> ());
        Syscall.fsync env dst;
        Syscall.close env src;
        Syscall.close env dst)
  in
  Machine.run m;
  let verified = verify_dst s in
  {
    pr_stage = label;
    pr_bytes = file_bytes;
    pr_seconds = !seconds;
    pr_kb_per_sec =
      (if !seconds > 0.0 then float_of_int file_bytes /. 1024.0 /. !seconds
       else 0.0);
    pr_cpu_sec = Time.to_sec_f !cpu;
    pr_runs = Stats.get stats "graph.prog_runs" - runs0;
    pr_insns = Stats.get stats "graph.prog_insns" - insns0;
    pr_checksum = !checksum;
    pr_verified = verified;
  }

(* {1 UDP relay} *)

type relay_measure = {
  rm_datagrams : int;
  rm_dropped : int;
  rm_cpu_busy_frac : float;
  rm_seconds : float;
}

(* Stub hosts don't charge the relay CPU. *)
let free_intr ~service:_ fn = fn ()

let measure_relay ~mode ?(datagrams = 500) ?(dgram_bytes = 4096)
    ?(interval_us = 2000) () =
  let m = Machine.create () in
  let net = Netif.create_net ~bandwidth:2.5e6 (Machine.engine m) in
  let relay_if =
    Netif.attach net ~name:"relay0" ~intr:(Machine.intr m) ()
  in
  let sender_if = Netif.attach net ~name:"sender0" ~intr:free_intr () in
  let sink_if = Netif.attach net ~name:"sink0" ~intr:free_intr () in
  let sink_sock = Udp.create sink_if ~port:9 () in
  let received = ref 0 in
  Udp.set_upcall sink_sock (Some (fun _ -> incr received));
  let relay_in = Udp.create relay_if ~port:7 ~rcvbuf:(64 * 1024) () in
  let relay_out = Udp.create relay_if ~port:8 () in
  let sink_addr = Udp.addr sink_sock in
  (* The relay itself. *)
  (match mode with
   | `Splice ->
     let splice_started = ref false in
     let _starter =
       Machine.spawn m ~name:"splice-relay" (fun () ->
           let _desc =
             Splice.start (Machine.splice_ctx m)
               ~src:(Endpoint.Src_socket relay_in)
               ~dst:(Endpoint.Dst_socket { sock = relay_out; dst = sink_addr })
               ~size:(datagrams * dgram_bytes) ()
           in
           splice_started := true)
     in
     ()
   | `Process ->
     let _relay =
       Machine.spawn m ~name:"relay" (fun () ->
           let env = Syscall.make_env m in
           let buf = Bytes.create dgram_bytes in
           let fd_in = Syscall.socket_of env relay_in in
           let fd_out = Syscall.socket_of env relay_out in
           let rec go n =
             if n < datagrams then begin
               let got, _from = Syscall.recvfrom env fd_in buf ~pos:0 ~len:dgram_bytes in
               Syscall.sendto env fd_out sink_addr buf ~pos:0 ~len:got;
               go (n + 1)
             end
           in
           go 0)
     in
     ());
  (* Stub sender: one datagram every [interval_us]. *)
  let payload = Bytes.make dgram_bytes 'x' in
  let sender_sock = Udp.create sender_if ~port:5 () in
  let relay_in_addr = Udp.addr relay_in in
  let rec send_tick n =
    if n < datagrams then
      ignore
        (Engine.schedule_after (Machine.engine m) (Time.us interval_us) (fun () ->
             Udp.sendto sender_sock ~dst:relay_in_addr payload;
             send_tick (n + 1)))
  in
  send_tick 0;
  let horizon = Time.us (interval_us * (datagrams + 200)) in
  Machine.run ~until:horizon m;
  let now = Machine.now m in
  let cpu = Sched.cpu (Machine.sched m) in
  {
    rm_datagrams = !received;
    rm_dropped = Udp.drops relay_in;
    rm_cpu_busy_frac = Kpath_proc.Cpu.utilization cpu ~now;
    rm_seconds = Time.to_sec_f now;
  }
