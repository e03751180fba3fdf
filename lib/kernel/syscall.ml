open Kpath_sim
open Kpath_proc
open Kpath_dev
open Kpath_fs
open Kpath_net
open Kpath_core

type env = {
  machine : Machine.t;
  fds : Fd.table;
  proc : Process.t;
  mutable itimer : Engine.handle option;
}

(* Descriptor teardown shared by close(2) and exit-time cleanup. *)
let dispose_openfile (f : Fd.openfile) =
  match f.Fd.of_kind with
  | Fd.Socket { sock; _ } -> Udp.close sock
  | Fd.Chardev cd -> Chardev.close_stream cd
  | Fd.Tcp conn -> Tcp.close conn
  | Fd.File _ | Fd.Framebuffer _ -> ()

let make_env machine =
  let env =
    { machine; fds = Fd.create (); proc = Process.self (); itimer = None }
  in
  (* Kernel exit(2) work: release descriptors and timers the process
     left behind. *)
  Sched.exit_hook env.proc (fun () ->
      (match env.itimer with
       | Some h ->
         Engine.cancel (Machine.engine machine) h;
         env.itimer <- None
       | None -> ());
      List.iter
        (fun fd -> dispose_openfile (Fd.close env.fds fd))
        (Fd.all_fds env.fds));
  env

let machine env = env.machine

let proc env = env.proc

type open_flag = O_RDONLY | O_WRONLY | O_RDWR | O_CREAT | O_TRUNC

let cfg env = Machine.config env.machine

(* Kernel entry: charge the trap cost. Issuing a fresh syscall means the
   process went back through user mode since its last kernel sleep, so
   any kernel-wakeup priority boost lapses here. *)
let enter env =
  let p = env.proc in
  if p.Process.priority < p.Process.base_priority then
    p.Process.priority <- p.Process.base_priority;
  Process.use_cpu Process.Sys (cfg env).Config.syscall_overhead

(* Return path of potentially-blocking calls: deliver pending signals
   (handlers run here, in process context). *)
let syscall_exit env = Signal.take_pending env.proc

let copy_cpu env n =
  if n > 0 then Process.use_cpu Process.Sys (Config.copy_cost (cfg env) n)

let fs_guard call f =
  try f () with Fs_error.Error e -> Errno.raise_errno (Errno.of_fs_error e) call

let resolve_fs env path call =
  match Machine.resolve env.machine path with
  | Some (fs, rel) -> (fs, rel)
  | None -> Errno.raise_errno Errno.ENOENT call

(* {1 Files and devices} *)

let openf env path flags =
  enter env;
  match Machine.find_chardev env.machine path with
  | Some cd -> Fd.alloc env.fds (Fd.Chardev cd)
  | None -> (
    match Machine.find_framebuffer env.machine path with
    | Some fb -> Fd.alloc env.fds (Fd.Framebuffer fb)
    | None ->
      let fs, rel = resolve_fs env path "open" in
      fs_guard "open" (fun () ->
          let ino =
            match Fs.lookup fs rel with
            | ino ->
              if ino.Inode.ftype = Inode.Directory then
                Errno.raise_errno Errno.EISDIR "open";
              ino
            | exception Fs_error.Error Fs_error.Enoent when List.mem O_CREAT flags
              ->
              Fs.create_file fs rel
          in
          if List.mem O_TRUNC flags then Fs.truncate fs ino 0;
          let readable = not (List.mem O_WRONLY flags) in
          let writable =
            List.mem O_WRONLY flags || List.mem O_RDWR flags
            || List.mem O_CREAT flags
          in
          Fd.alloc env.fds
            (Fd.File { fs; ino; offset = 0; readable; writable })))

let close env fd =
  enter env;
  dispose_openfile (Fd.close env.fds fd)

let read env fd buf ~pos ~len =
  enter env;
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    Errno.raise_errno Errno.EINVAL "read";
  let f = Fd.get env.fds fd in
  let n =
    match f.Fd.of_kind with
    | Fd.File fh ->
      if not fh.Fd.readable then Errno.raise_errno Errno.EBADF "read";
      let n =
        fs_guard "read" (fun () ->
            Fs.read fh.Fd.fs fh.Fd.ino ~off:fh.Fd.offset ~len buf ~pos)
      in
      fh.Fd.offset <- fh.Fd.offset + n;
      copy_cpu env n;
      n
    | Fd.Socket { sock; _ } -> (
      match Udp.recv sock with
      | None -> 0
      | Some dg ->
        let n = min len (Bytes.length dg.Udp.d_payload) in
        Bytes.blit dg.Udp.d_payload 0 buf pos n;
        Process.use_cpu Process.Sys (cfg env).Config.udp_proto_cost;
        copy_cpu env n;
        n)
    | Fd.Framebuffer fb ->
      let result = ref None in
      Process.block "fbread" (fun waker ->
          Framebuffer.next_frame fb (fun ~seq:_ frame ->
              result := Some frame;
              waker ()));
      (match !result with
       | Some frame ->
         let n = min len (Bytes.length frame) in
         Bytes.blit frame 0 buf pos n;
         copy_cpu env n;
         n
       | None -> 0)
    | Fd.Tcp conn ->
      let n = Tcp.recv conn buf ~pos ~len in
      Process.use_cpu Process.Sys (cfg env).Config.udp_proto_cost;
      copy_cpu env n;
      n
    | Fd.Chardev _ -> Errno.raise_errno Errno.EINVAL "read: write-only device"
  in
  syscall_exit env;
  n

let write env fd buf ~pos ~len =
  enter env;
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    Errno.raise_errno Errno.EINVAL "write";
  let f = Fd.get env.fds fd in
  let n =
    match f.Fd.of_kind with
    | Fd.File fh ->
      if not fh.Fd.writable then Errno.raise_errno Errno.EBADF "write";
      copy_cpu env len;
      let n =
        fs_guard "write" (fun () ->
            Fs.write fh.Fd.fs fh.Fd.ino ~off:fh.Fd.offset ~len buf ~pos)
      in
      fh.Fd.offset <- fh.Fd.offset + n;
      n
    | Fd.Chardev cd ->
      copy_cpu env len;
      Process.block "cdwrite" (fun waker ->
          Chardev.write_async cd buf pos len (fun () -> waker ()));
      len
    | Fd.Socket ({ sock; _ } as s) -> (
      match s.Fd.peer with
      | None -> Errno.raise_errno Errno.EINVAL "write: unconnected socket"
      | Some dst ->
        copy_cpu env len;
        Process.use_cpu Process.Sys (cfg env).Config.udp_proto_cost;
        Udp.sendto sock ~dst (Bytes.sub buf pos len);
        len)
    | Fd.Tcp conn ->
      copy_cpu env len;
      Process.use_cpu Process.Sys (cfg env).Config.udp_proto_cost;
      (try Tcp.send conn buf ~pos ~len
       with Invalid_argument m -> Errno.raise_errno Errno.EINVAL ("write: " ^ m));
      len
    | Fd.Framebuffer _ -> Errno.raise_errno Errno.EINVAL "write: read-only device"
  in
  syscall_exit env;
  n

let lseek env fd off =
  enter env;
  let f = Fd.get env.fds fd in
  match f.Fd.of_kind with
  | Fd.File fh ->
    if off < 0 then Errno.raise_errno Errno.EINVAL "lseek";
    fh.Fd.offset <- off;
    off
  | Fd.Chardev _ | Fd.Socket _ | Fd.Tcp _ | Fd.Framebuffer _ ->
    Errno.raise_errno Errno.ESPIPE "lseek"

let fsync env fd =
  enter env;
  let f = Fd.get env.fds fd in
  (match f.Fd.of_kind with
   | Fd.File fh -> fs_guard "fsync" (fun () -> Fs.fsync fh.Fd.fs fh.Fd.ino)
   | Fd.Chardev _ | Fd.Socket _ | Fd.Tcp _ | Fd.Framebuffer _ ->
     Errno.raise_errno Errno.EINVAL "fsync");
  syscall_exit env

let unlink env path =
  enter env;
  let fs, rel = resolve_fs env path "unlink" in
  fs_guard "unlink" (fun () -> Fs.unlink fs rel)

let mkdir env path =
  enter env;
  let fs, rel = resolve_fs env path "mkdir" in
  fs_guard "mkdir" (fun () -> ignore (Fs.mkdir fs rel))

let two_paths env a b call =
  let fs_a, rel_a = resolve_fs env a call in
  let fs_b, rel_b = resolve_fs env b call in
  if fs_a != fs_b then Errno.raise_errno Errno.EXDEV call;
  (fs_a, rel_a, rel_b)

let hardlink env existing fresh =
  enter env;
  let fs, rel_old, rel_new = two_paths env existing fresh "link" in
  fs_guard "link" (fun () -> Fs.link fs rel_old rel_new)

let rename env old_path new_path =
  enter env;
  let fs, rel_old, rel_new = two_paths env old_path new_path "rename" in
  fs_guard "rename" (fun () -> Fs.rename fs rel_old rel_new)

let fcntl_setfl env fd ~fasync =
  enter env;
  let f = Fd.get env.fds fd in
  f.Fd.of_fasync <- fasync

let file_size env fd =
  enter env;
  match (Fd.get env.fds fd).Fd.of_kind with
  | Fd.File fh -> fh.Fd.ino.Inode.size
  | Fd.Chardev _ | Fd.Socket _ | Fd.Tcp _ | Fd.Framebuffer _ ->
    Errno.raise_errno Errno.EINVAL "fstat"

(* {1 Sockets} *)

let socket env nif ~port ?rcvbuf () =
  enter env;
  let sock = Udp.create nif ~port ?rcvbuf () in
  Fd.alloc env.fds (Fd.Socket { sock; peer = None })

let socket_of env sock =
  enter env;
  Fd.alloc env.fds (Fd.Socket { sock; peer = None })

let get_socket env fd call =
  match (Fd.get env.fds fd).Fd.of_kind with
  | Fd.Socket s -> s
  | Fd.File _ | Fd.Chardev _ | Fd.Tcp _ | Fd.Framebuffer _ ->
    Errno.raise_errno Errno.EINVAL call

(* {1 TCP} *)

let tcp_listen env nif ~port =
  enter env;
  Tcp.listen nif ~port ()

let tcp_accept env l =
  enter env;
  let conn = Tcp.accept l in
  syscall_exit env;
  Fd.alloc env.fds (Fd.Tcp conn)

let tcp_connect env nif ~port ~dst ?rcvbuf () =
  enter env;
  match Tcp.connect nif ~port ~dst ?rcvbuf () with
  | conn ->
    syscall_exit env;
    Fd.alloc env.fds (Fd.Tcp conn)
  | exception Failure m -> Errno.raise_errno Errno.EIO ("connect: " ^ m)

let tcp_conn env fd =
  match (Fd.get env.fds fd).Fd.of_kind with
  | Fd.Tcp conn -> conn
  | Fd.File _ | Fd.Chardev _ | Fd.Socket _ | Fd.Framebuffer _ ->
    Errno.raise_errno Errno.EINVAL "tcp_conn"

let connect env fd addr =
  enter env;
  let s = get_socket env fd "connect" in
  s.Fd.peer <- Some addr

let sendto env fd dst buf ~pos ~len =
  enter env;
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    Errno.raise_errno Errno.EINVAL "sendto";
  let s = get_socket env fd "sendto" in
  copy_cpu env len;
  Process.use_cpu Process.Sys (cfg env).Config.udp_proto_cost;
  Udp.sendto s.Fd.sock ~dst (Bytes.sub buf pos len)

let recvfrom env fd buf ~pos ~len =
  enter env;
  let s = get_socket env fd "recvfrom" in
  match Udp.recv s.Fd.sock with
  | None -> Errno.raise_errno Errno.EBADF "recvfrom: socket closed"
  | Some dg ->
    let n = min len (Bytes.length dg.Udp.d_payload) in
    Bytes.blit dg.Udp.d_payload 0 buf pos n;
    Process.use_cpu Process.Sys (cfg env).Config.udp_proto_cost;
    copy_cpu env n;
    syscall_exit env;
    (n, dg.Udp.d_from)

let socket_addr env fd =
  enter env;
  Udp.addr (get_socket env fd "getsockname").Fd.sock

(* {1 splice} *)

let splice_eof = Splice.eof

let block_aligned env off =
  let bs = (cfg env).Config.block_size in
  if off mod bs <> 0 then Errno.raise_errno Errno.EINVAL "splice: unaligned offset";
  off / bs

let src_endpoint env (f : Fd.openfile) =
  match f.Fd.of_kind with
  | Fd.File fh ->
    if not fh.Fd.readable then Errno.raise_errno Errno.EBADF "splice";
    Endpoint.src_file fh.Fd.fs fh.Fd.ino
      ~off_blocks:(block_aligned env fh.Fd.offset) ()
  | Fd.Socket { sock; _ } -> Endpoint.Src_socket sock
  | Fd.Framebuffer fb -> Endpoint.Src_framebuffer fb
  | Fd.Tcp _ -> Errno.raise_errno Errno.EINVAL "splice: tcp source"
  | Fd.Chardev _ -> Errno.raise_errno Errno.EINVAL "splice: chardev source"

let dst_endpoint env (f : Fd.openfile) =
  match f.Fd.of_kind with
  | Fd.File fh ->
    if not fh.Fd.writable then Errno.raise_errno Errno.EBADF "splice";
    Endpoint.dst_file fh.Fd.fs fh.Fd.ino
      ~off_blocks:(block_aligned env fh.Fd.offset) ()
  | Fd.Socket s -> (
    match s.Fd.peer with
    | Some dst -> Endpoint.Dst_socket { sock = s.Fd.sock; dst }
    | None -> Errno.raise_errno Errno.EINVAL "splice: unconnected socket sink")
  | Fd.Tcp conn -> Endpoint.Dst_tcp conn
  | Fd.Chardev cd -> Endpoint.Dst_chardev cd
  | Fd.Framebuffer _ -> Errno.raise_errno Errno.EINVAL "splice: framebuffer sink"

let advance_offset (f : Fd.openfile) n =
  match f.Fd.of_kind with
  | Fd.File fh -> fh.Fd.offset <- fh.Fd.offset + n
  | Fd.Chardev _ | Fd.Socket _ | Fd.Tcp _ | Fd.Framebuffer _ -> ()

(* Bytes a source will stream, resolved the way splice's own set-up
   resolves them; raises [Invalid_argument] for a negative size. *)
let source_bytes (src : Endpoint.source) size =
  match src with
  | Endpoint.Src_file { fs; ino; off_blocks } ->
    Splice.file_bytes ino ~off_blocks ~block_size:(Fs.block_size fs) ~size
  | Endpoint.Src_socket _ | Endpoint.Src_framebuffer _ | Endpoint.Src_mic _ -> 0

(* Setup cost: one bmap walk and table slot per source block the
   transfer maps (§5.2). *)
let charge_setup env nbytes =
  let bs = (cfg env).Config.block_size in
  let nblocks = (nbytes + bs - 1) / bs in
  if nblocks > 0 then
    Process.use_cpu Process.Sys
      (Time.scale (cfg env).Config.splice_setup_per_block nblocks)

let splice_start env ~src ~dst ?config size =
  enter env;
  let fsrc = Fd.get env.fds src and fdst = Fd.get env.fds dst in
  let desc =
    fs_guard "splice" (fun () ->
        try
          let src = src_endpoint env fsrc and dst = dst_endpoint env fdst in
          charge_setup env (source_bytes src size);
          Splice.start (Machine.splice_ctx env.machine) ~src ~dst ?config ~size
            ()
        with Invalid_argument msg -> Errno.raise_errno Errno.EINVAL msg)
  in
  let total = Splice.total_bytes desc in
  if total < max_int then begin
    advance_offset fsrc total;
    advance_offset fdst total
  end;
  desc

let splice env ~src ~dst ?config size =
  let fsrc = Fd.get env.fds src and fdst = Fd.get env.fds dst in
  let fasync = fsrc.Fd.of_fasync || fdst.Fd.of_fasync in
  let desc = splice_start env ~src ~dst ?config size in
  if fasync then begin
    let target = env.proc and sched = Machine.sched env.machine in
    Splice.on_complete desc (fun _ -> Signal.deliver sched target Signal.sigio);
    (* Unbounded (until-interrupted) splices have no meaningful byte
       count yet. *)
    let total = Splice.total_bytes desc in
    if total = max_int then 0 else total
  end
  else begin
    let result = Splice.wait desc in
    syscall_exit env;
    match result with
    | Ok n -> n
    | Error reason -> Errno.raise_errno Errno.EIO ("splice: " ^ reason)
  end

(* {1 splice graphs} *)

module Graph = Kpath_graph.Graph

let splice_graph_start env ~srcs ~dsts ?config ?filters ?window size =
  enter env;
  (match (srcs, dsts) with
   | [], _ | _, [] ->
     Errno.raise_errno Errno.EINVAL "splice_graph: empty endpoint list"
   | [ _ ], _ | _, [ _ ] -> ()
   | _ ->
     Errno.raise_errno Errno.EINVAL
       "splice_graph: topology must be one-to-many or many-to-one");
  let fsrcs = List.map (Fd.get env.fds) srcs in
  let fdsts = List.map (Fd.get env.fds) dsts in
  let g, totals =
    fs_guard "splice_graph" (fun () ->
        try
          let srcs = List.map (src_endpoint env) fsrcs in
          let dsts = List.map (dst_endpoint env) fdsts in
          let totals = List.map (fun src -> source_bytes src size) srcs in
          List.iter (charge_setup env) totals;
          let g = Graph.create (Machine.graph_ctx env.machine) ?window () in
          let src_nodes =
            List.map
              (function
                | Endpoint.Src_file { fs; ino; off_blocks } ->
                  Graph.add_file_source g ~fs ~ino ~off_blocks ~size ()
                | Endpoint.Src_socket _ | Endpoint.Src_framebuffer _
                | Endpoint.Src_mic _ ->
                  Errno.raise_errno Errno.EINVAL
                    "splice_graph: sources must be files")
              srcs
          in
          let dst_nodes = List.map (Graph.add_sink g) dsts in
          List.iter
            (fun src ->
              List.iter
                (fun dst -> ignore (Graph.connect g ?config ?filters ~src ~dst ()))
                dst_nodes)
            src_nodes;
          Graph.start g;
          (g, totals)
        with Invalid_argument msg -> Errno.raise_errno Errno.EINVAL msg)
  in
  (* Advance file offsets past the spliced ranges, as splice(2) does:
     each source by what it streams, a file sink by everything it
     receives. *)
  List.iter2 advance_offset fsrcs totals;
  let sum = List.fold_left ( + ) 0 totals in
  List.iter (fun f -> advance_offset f sum) fdsts;
  g

let splice_graph env ~srcs ~dsts ?config ?filters ?window size =
  let fasync =
    List.exists
      (fun fd -> (Fd.get env.fds fd).Fd.of_fasync)
      (srcs @ dsts)
  in
  let g = splice_graph_start env ~srcs ~dsts ?config ?filters ?window size in
  if fasync then begin
    let target = env.proc and sched = Machine.sched env.machine in
    Graph.on_complete g (fun _ -> Signal.deliver sched target Signal.sigio);
    0
  end
  else begin
    let result = Graph.wait g in
    syscall_exit env;
    match result with
    | Ok n -> n
    | Error reason -> Errno.raise_errno Errno.EIO ("splice_graph: " ^ reason)
  end

(* The verifier replaces run-time policing: parse and prove the program
   here, in process context, so the interrupt-side pump can run it
   unchecked. The source is copied in like any user buffer; the
   verification pass itself is a single linear scan, charged as part of
   the trap. The accepted program is also translated to closures here — load time, process context — so the
   first block through an edge pays nothing. *)
let prog_load env text =
  enter env;
  copy_cpu env (String.length text);
  match Kpath_vm.Asm.load text with
  | Ok p as ok ->
    Graph.preload_prog (Machine.graph_ctx env.machine) p;
    ok
  | Error _ as e -> e

(* {1 Signals and timers} *)

let sigaction env signo handler =
  enter env;
  match handler with
  | Some fn -> Signal.handle env.proc signo fn
  | None -> Signal.ignore_signal env.proc signo

let rec rearm_itimer env interval =
  let engine = Machine.engine env.machine in
  env.itimer <-
    Some
      (Engine.schedule_after engine interval (fun () ->
           Signal.deliver (Machine.sched env.machine) env.proc Signal.sigalrm;
           if env.itimer <> None then rearm_itimer env interval))

let setitimer env interval =
  enter env;
  (match env.itimer with
   | Some h ->
     Engine.cancel (Machine.engine env.machine) h;
     env.itimer <- None
   | None -> ());
  match interval with
  | Some span when Time.(span > Time.zero) -> rearm_itimer env span
  | Some _ | None -> ()

let pause env =
  enter env;
  Sched.pause (Machine.sched env.machine);
  syscall_exit env

let sleep env span =
  enter env;
  ignore (Sched.sleep_interruptible (Machine.sched env.machine) span);
  syscall_exit env

let getpid env = env.proc.Process.pid
