open Kpath_sim
open Kpath_proc
open Kpath_dev
open Kpath_net
open Kpath_kernel

(* Rig: machine with one RAM-backed filesystem mounted at /, a chardev
   at /dev/dac and a framebuffer at /dev/fb; body runs in a process. *)
let with_kernel body =
  let m = Machine.create () in
  let drive = Machine.make_drive m ~name:"disk0" ~kind:`Ram () in
  let cd =
    Chardev.create ~name:"dac" ~drain_rate:1e6 ~fifo_capacity:(64 * 1024)
      ~engine:(Machine.engine m) ~intr:(Machine.intr m) ()
  in
  Machine.register_chardev m "/dev/dac" cd;
  let fb =
    Framebuffer.create ~name:"fb" ~frame_bytes:4096 ~frames_per_sec:25.0
      ~engine:(Machine.engine m) ()
  in
  Machine.register_framebuffer m "/dev/fb" fb;
  let result = ref None in
  let p =
    Machine.spawn m ~name:"ktest" (fun () ->
        let fs =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive)
            ~ninodes:32
        in
        Machine.mount m "/" fs;
        let env = Syscall.make_env m in
        result := Some (body m env))
  in
  Machine.run m;
  (match p.Process.exit_status with
   | Some (Process.Crashed e) -> raise e
   | _ -> ());
  Option.get !result

let errno = Alcotest.testable Errno.pp ( = )

let expect_errno code f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (Errno.to_string code)
  | exception Errno.Unix_error (got, _) -> Alcotest.check errno "errno" code got

let test_open_read_write () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/f" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      let data = Bytes.of_string "system call data" in
      let n = Syscall.write env fd data ~pos:0 ~len:(Bytes.length data) in
      Alcotest.(check int) "written" (Bytes.length data) n;
      Syscall.close env fd;
      let fd = Syscall.openf env "/f" [ Syscall.O_RDONLY ] in
      let out = Bytes.create 64 in
      let n = Syscall.read env fd out ~pos:0 ~len:64 in
      Alcotest.(check string) "read back" "system call data"
        (Bytes.sub_string out 0 n);
      Alcotest.(check int) "eof" 0 (Syscall.read env fd out ~pos:0 ~len:64);
      Alcotest.(check int) "size" 16 (Syscall.file_size env fd);
      Syscall.close env fd)

let test_offsets_and_lseek () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/f" [ Syscall.O_CREAT; Syscall.O_RDWR ] in
      ignore (Syscall.write env fd (Bytes.of_string "abcdef") ~pos:0 ~len:6);
      ignore (Syscall.lseek env fd 2);
      let out = Bytes.create 2 in
      ignore (Syscall.read env fd out ~pos:0 ~len:2);
      Alcotest.(check string) "seeked read" "cd" (Bytes.to_string out);
      Syscall.close env fd)

let test_errnos () =
  with_kernel (fun _ env ->
      expect_errno Errno.ENOENT (fun () ->
          Syscall.openf env "/missing" [ Syscall.O_RDONLY ]);
      expect_errno Errno.EBADF (fun () ->
          Syscall.read env 99 (Bytes.create 1) ~pos:0 ~len:1);
      let fd = Syscall.openf env "/ro" [ Syscall.O_CREAT ] in
      Syscall.close env fd;
      expect_errno Errno.EBADF (fun () ->
          Syscall.read env fd (Bytes.create 1) ~pos:0 ~len:1);
      let ro = Syscall.openf env "/ro" [ Syscall.O_RDONLY ] in
      expect_errno Errno.EBADF (fun () ->
          Syscall.write env ro (Bytes.create 1) ~pos:0 ~len:1);
      expect_errno Errno.EINVAL (fun () ->
          Syscall.read env ro (Bytes.create 1) ~pos:0 ~len:5);
      Syscall.close env ro)

let test_o_trunc () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/t" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      ignore (Syscall.write env fd (Bytes.make 100 'x') ~pos:0 ~len:100);
      Syscall.close env fd;
      let fd = Syscall.openf env "/t" [ Syscall.O_WRONLY; Syscall.O_TRUNC ] in
      Alcotest.(check int) "truncated" 0 (Syscall.file_size env fd);
      Syscall.close env fd)

let test_unlink_mkdir () =
  with_kernel (fun _ env ->
      Syscall.mkdir env "/dir";
      let fd = Syscall.openf env "/dir/x" [ Syscall.O_CREAT ] in
      Syscall.close env fd;
      Syscall.unlink env "/dir/x";
      expect_errno Errno.ENOENT (fun () ->
          Syscall.openf env "/dir/x" [ Syscall.O_RDONLY ]))

let test_link_rename_syscalls () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/orig" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      ignore (Syscall.write env fd (Bytes.of_string "payload") ~pos:0 ~len:7);
      Syscall.close env fd;
      Syscall.hardlink env "/orig" "/alias";
      let rd = Syscall.openf env "/alias" [ Syscall.O_RDONLY ] in
      let out = Bytes.create 16 in
      let n = Syscall.read env rd out ~pos:0 ~len:16 in
      Alcotest.(check string) "via link" "payload" (Bytes.sub_string out 0 n);
      Syscall.close env rd;
      Syscall.rename env "/orig" "/moved";
      expect_errno Errno.ENOENT (fun () ->
          Syscall.openf env "/orig" [ Syscall.O_RDONLY ]);
      let rd = Syscall.openf env "/moved" [ Syscall.O_RDONLY ] in
      Alcotest.(check int) "size intact" 7 (Syscall.file_size env rd);
      Syscall.close env rd;
      expect_errno Errno.EEXIST (fun () -> Syscall.hardlink env "/moved" "/alias"))

let test_chardev_write_and_lseek_espipe () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/dev/dac" [ Syscall.O_WRONLY ] in
      let n = Syscall.write env fd (Bytes.make 1000 'm') ~pos:0 ~len:1000 in
      Alcotest.(check int) "accepted" 1000 n;
      expect_errno Errno.ESPIPE (fun () -> Syscall.lseek env fd 0);
      expect_errno Errno.EINVAL (fun () ->
          Syscall.read env fd (Bytes.create 1) ~pos:0 ~len:1);
      Syscall.close env fd)

let test_framebuffer_read () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/dev/fb" [ Syscall.O_RDONLY ] in
      let out = Bytes.create 4096 in
      let n = Syscall.read env fd out ~pos:0 ~len:4096 in
      Alcotest.(check int) "one frame" 4096 n;
      Alcotest.(check bytes) "frame pattern"
        (Framebuffer.frame_pattern ~seq:0 ~size:4096)
        out;
      Syscall.close env fd)

let test_syscalls_cost_cpu () =
  with_kernel (fun m env ->
      let cpu = Sched.cpu (Machine.sched m) in
      let before = Cpu.sys cpu in
      let fd = Syscall.openf env "/c" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      ignore (Syscall.write env fd (Bytes.create 8192) ~pos:0 ~len:8192);
      Syscall.close env fd;
      let spent = Time.diff (Cpu.sys cpu) before in
      (* At least the copyin of 8 KB at the memory copy rate. *)
      let copy = Config.copy_cost (Machine.config m) 8192 in
      Alcotest.(check bool) "copyin charged" true Time.(spent >= copy))

let test_scaled_rejects_nan () =
  Alcotest.check_raises "NaN factor"
    (Invalid_argument "Config.scaled: factor <= 0") (fun () ->
      ignore (Config.scaled Config.decstation_5000_200 ~cpu_factor:Float.nan))

let test_sockets_syscalls () =
  with_kernel (fun m env ->
      let net = Netif.create_net (Machine.engine m) in
      let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
      let fd_a = Syscall.socket env nif ~port:100 () in
      let fd_b = Syscall.socket env nif ~port:200 () in
      let addr_b = Syscall.socket_addr env fd_b in
      Syscall.sendto env fd_a addr_b (Bytes.of_string "ping") ~pos:0 ~len:4;
      let out = Bytes.create 16 in
      let n, from = Syscall.recvfrom env fd_b out ~pos:0 ~len:16 in
      Alcotest.(check string) "payload" "ping" (Bytes.sub_string out 0 n);
      Alcotest.(check int) "from port" 100 from.Udp.a_port;
      (* connect + write path *)
      Syscall.connect env fd_a addr_b;
      ignore (Syscall.write env fd_a (Bytes.of_string "pong") ~pos:0 ~len:4);
      let n, _ = Syscall.recvfrom env fd_b out ~pos:0 ~len:16 in
      Alcotest.(check string) "via write" "pong" (Bytes.sub_string out 0 n);
      expect_errno Errno.EINVAL (fun () ->
          Syscall.write env fd_b (Bytes.create 1) ~pos:0 ~len:1);
      Syscall.close env fd_a;
      Syscall.close env fd_b)

let test_splice_syscall_sync () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/src" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      let data = Bytes.create (64 * 1024) in
      Kpath_workloads.Programs.fill_pattern data ~file_off:0;
      ignore (Syscall.write env fd data ~pos:0 ~len:(Bytes.length data));
      Syscall.fsync env fd;
      Syscall.close env fd;
      let sfd = Syscall.openf env "/src" [ Syscall.O_RDONLY ] in
      let dfd = Syscall.openf env "/dst" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      let n = Syscall.splice env ~src:sfd ~dst:dfd Syscall.splice_eof in
      Alcotest.(check int) "moved" (64 * 1024) n;
      Syscall.close env sfd;
      Syscall.close env dfd;
      (* Read back through the fs. *)
      let rfd = Syscall.openf env "/dst" [ Syscall.O_RDONLY ] in
      let out = Bytes.create (64 * 1024) in
      let n = Syscall.read env rfd out ~pos:0 ~len:(64 * 1024) in
      Alcotest.(check int) "full" (64 * 1024) n;
      Alcotest.(check bytes) "identical" data out;
      Syscall.close env rfd)

let test_splice_async_sigio () =
  with_kernel (fun m env ->
      let fd = Syscall.openf env "/src" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      ignore (Syscall.write env fd (Bytes.create (32 * 1024)) ~pos:0 ~len:(32 * 1024));
      Syscall.close env fd;
      let sfd = Syscall.openf env "/src" [ Syscall.O_RDONLY ] in
      let dfd = Syscall.openf env "/dst" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      let sigio_seen = ref false in
      Syscall.sigaction env Signal.sigio (Some (fun () -> sigio_seen := true));
      (* The paper's idiom: fcntl(FASYNC) then splice returns at once. *)
      Syscall.fcntl_setfl env sfd ~fasync:true;
      let t0 = Machine.now m in
      let scheduled = Syscall.splice env ~src:sfd ~dst:dfd Syscall.splice_eof in
      Alcotest.(check int) "whole transfer scheduled" (32 * 1024) scheduled;
      (* The call charges only setup plus the first read burst -- far
         less than the full transfer. *)
      Alcotest.(check bool) "returned before the transfer" true
        Time.(Time.diff (Machine.now m) t0 < Time.ms 20);
      Alcotest.(check bool) "not yet delivered" false !sigio_seen;
      (* pause() until SIGIO announces completion. *)
      Syscall.pause env;
      Alcotest.(check bool) "SIGIO delivered" true !sigio_seen;
      Syscall.close env sfd;
      Syscall.close env dfd)

let test_splice_unaligned_offset_einval () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/src" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      ignore (Syscall.write env fd (Bytes.create 9000) ~pos:0 ~len:9000);
      Syscall.close env fd;
      let sfd = Syscall.openf env "/src" [ Syscall.O_RDONLY ] in
      let dfd = Syscall.openf env "/dst" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      ignore (Syscall.lseek env sfd 100);
      expect_errno Errno.EINVAL (fun () ->
          Syscall.splice env ~src:sfd ~dst:dfd 1000))

let test_splice_advances_offsets () =
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/src" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      ignore (Syscall.write env fd (Bytes.create (32 * 1024)) ~pos:0 ~len:(32 * 1024));
      Syscall.close env fd;
      let sfd = Syscall.openf env "/src" [ Syscall.O_RDONLY ] in
      let dfd = Syscall.openf env "/dst" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      let n1 = Syscall.splice env ~src:sfd ~dst:dfd (16 * 1024) in
      let n2 = Syscall.splice env ~src:sfd ~dst:dfd Syscall.splice_eof in
      Alcotest.(check int) "first half" (16 * 1024) n1;
      Alcotest.(check int) "second half" (16 * 1024) n2;
      Alcotest.(check int) "dst size" (32 * 1024) (Syscall.file_size env dfd))

let test_splice_setup_charges_mapped_blocks () =
  (* The set-up charge covers the blocks the transfer maps: a request
     far past end of file costs the same system CPU as SPLICE_EOF. *)
  with_kernel (fun _ env ->
      let fd = Syscall.openf env "/src" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
      let data = Bytes.create (64 * 1024) in
      ignore (Syscall.write env fd data ~pos:0 ~len:(Bytes.length data));
      Syscall.close env fd;
      let sfd = Syscall.openf env "/src" [ Syscall.O_RDONLY ] in
      let proc = Syscall.proc env in
      let splice_sys path size =
        ignore (Syscall.lseek env sfd 0);
        let dfd =
          Syscall.openf env path [ Syscall.O_CREAT; Syscall.O_WRONLY ]
        in
        let sys0 = proc.Process.cpu_sys in
        let n = Syscall.splice env ~src:sfd ~dst:dfd size in
        let spent = Time.diff proc.Process.cpu_sys sys0 in
        Syscall.close env dfd;
        Alcotest.(check int) "moved the whole file" (64 * 1024) n;
        spent
      in
      let at_eof = splice_sys "/d1" Syscall.splice_eof in
      let oversize = splice_sys "/d2" (100 * 1024 * 1024) in
      Alcotest.(check int) "oversize charges like SPLICE_EOF"
        (Time.to_ns at_eof) (Time.to_ns oversize))

let test_splice_socket_to_socket_syscall () =
  with_kernel (fun m env ->
      let net = Netif.create_net (Machine.engine m) in
      let nif = Netif.attach net ~name:"if0" ~intr:(Machine.intr m) () in
      let stub = Netif.attach net ~name:"stub" ~intr:(fun ~service:_ f -> f ()) () in
      let src_fd = Syscall.socket env nif ~port:300 () in
      let out_fd = Syscall.socket env nif ~port:301 () in
      let sink = Udp.create stub ~port:302 () in
      let remote = Udp.create stub ~port:303 () in
      let got = ref 0 in
      Udp.set_upcall sink (Some (fun dg -> got := !got + Bytes.length dg.Udp.d_payload));
      Syscall.connect env out_fd (Udp.addr sink);
      (* Unbounded async relay: returns 0 immediately. *)
      Syscall.fcntl_setfl env src_fd ~fasync:true;
      let scheduled = Syscall.splice env ~src:src_fd ~dst:out_fd Syscall.splice_eof in
      Alcotest.(check int) "unbounded async returns 0" 0 scheduled;
      (* Feed datagrams from the stub and let them flow. *)
      let src_addr =
        let s = Syscall.socket_addr env src_fd in
        ignore s;
        s
      in
      for _ = 1 to 5 do
        Udp.sendto remote ~dst:src_addr (Bytes.make 1000 'r')
      done;
      Syscall.sleep env (Time.ms 100);
      Alcotest.(check int) "relayed through the kernel" 5000 !got)

let test_setitimer_pause_loop () =
  with_kernel (fun m env ->
      let ticks = ref 0 in
      Syscall.sigaction env Signal.sigalrm (Some (fun () -> incr ticks));
      Syscall.setitimer env (Some (Time.ms 10));
      let t0 = Machine.now m in
      for _ = 1 to 5 do
        Syscall.pause env
      done;
      Syscall.setitimer env None;
      Alcotest.(check int) "five alarms" 5 !ticks;
      let elapsed = Time.diff (Machine.now m) t0 in
      Alcotest.(check bool) "about 50 ms" true
        Time.(elapsed >= Time.ms 50 && elapsed < Time.ms 80))

let test_interruptible_sleep () =
  with_kernel (fun m env ->
      Syscall.sigaction env Signal.sigalrm (Some (fun () -> ()));
      Syscall.setitimer env (Some (Time.ms 5));
      let t0 = Machine.now m in
      Syscall.sleep env (Time.sec 10);
      Syscall.setitimer env None;
      Alcotest.(check bool) "cut short by SIGALRM" true
        Time.(Time.diff (Machine.now m) t0 < Time.sec 1))

let test_getpid_and_mounts () =
  with_kernel (fun m env ->
      Alcotest.(check bool) "pid positive" true (Syscall.getpid env > 0);
      Alcotest.(check bool) "resolve /" true (Machine.resolve m "/f" <> None);
      Alcotest.(check bool) "resolve missing mount" true
        (Machine.resolve m "/f" <> None))

(* A descriptor lookup allocates nothing: the slots are an int table,
   and a hit returns the entry rather than an option. *)
let test_fd_get_no_alloc () =
  let engine = Engine.create () in
  let fb =
    Framebuffer.create ~name:"fb" ~frame_bytes:16 ~frames_per_sec:10.0 ~engine ()
  in
  let t = Fd.create () in
  let fds = List.init 8 (fun _ -> Fd.alloc t (Fd.Framebuffer fb)) in
  let fd = List.nth fds 5 in
  ignore (Fd.get t fd);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Fd.get t fd)
  done;
  let words = Gc.minor_words () -. before in
  if words > 0.0 then Alcotest.failf "Fd.get allocated %.0f words" words

let suite =
  [
    Alcotest.test_case "Fd.get allocates nothing" `Quick test_fd_get_no_alloc;
    Alcotest.test_case "open/read/write" `Quick test_open_read_write;
    Alcotest.test_case "offsets and lseek" `Quick test_offsets_and_lseek;
    Alcotest.test_case "errnos" `Quick test_errnos;
    Alcotest.test_case "O_TRUNC" `Quick test_o_trunc;
    Alcotest.test_case "unlink/mkdir" `Quick test_unlink_mkdir;
    Alcotest.test_case "link/rename syscalls" `Quick test_link_rename_syscalls;
    Alcotest.test_case "chardev descriptor" `Quick test_chardev_write_and_lseek_espipe;
    Alcotest.test_case "framebuffer descriptor" `Quick test_framebuffer_read;
    Alcotest.test_case "syscall CPU charging" `Quick test_syscalls_cost_cpu;
    Alcotest.test_case "Config.scaled rejects NaN" `Quick test_scaled_rejects_nan;
    Alcotest.test_case "socket syscalls" `Quick test_sockets_syscalls;
    Alcotest.test_case "splice(2) synchronous" `Quick test_splice_syscall_sync;
    Alcotest.test_case "splice(2) FASYNC + SIGIO" `Quick test_splice_async_sigio;
    Alcotest.test_case "splice(2) EINVAL unaligned" `Quick test_splice_unaligned_offset_einval;
    Alcotest.test_case "splice(2) advances offsets" `Quick test_splice_advances_offsets;
    Alcotest.test_case "splice(2) socket relay" `Quick test_splice_socket_to_socket_syscall;
    Alcotest.test_case "splice(2) set-up charges mapped blocks" `Quick
      test_splice_setup_charges_mapped_blocks;
    Alcotest.test_case "setitimer + pause" `Quick test_setitimer_pause_loop;
    Alcotest.test_case "interruptible sleep" `Quick test_interruptible_sleep;
    Alcotest.test_case "getpid and mounts" `Quick test_getpid_and_mounts;
  ]
