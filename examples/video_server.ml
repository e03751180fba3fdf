(* Video server: stream a file to a network client with file-to-socket
   splices — the delivery half of the paper's multimedia story (§5.1
   implemented framebuffer/file sources feeding sockets "for sending
   graphical images and video").

   A server machine paces bounded splices of a movie file straight from
   its filesystem into a UDP socket; a stub client reassembles the
   stream and verifies every byte. Compare the server CPU against a
   read/sendto loop doing the same job.

   Run with: dune exec examples/video_server.exe *)

open Kpath_sim
open Kpath_net
open Kpath_kernel
open Kpath_workloads

let movie_bytes = 2 * 1024 * 1024
let chunk = 64 * 1024 (* one paced burst *)
let rate = 1.5e6 (* 1.5 MB/s: generous MPEG-1-era video *)

let free_intr ~service:_ fn = fn ()

let run ~mode =
  let m = Machine.create () in
  let drive = Machine.make_drive m ~name:"rz58-0" ~kind:`Rz58 () in
  let net = Netif.create_net ~bandwidth:2.5e6 (Machine.engine m) in
  let server_if = Netif.attach net ~name:"server" ~intr:(Machine.intr m) () in
  let client_if = Netif.attach net ~name:"client" ~intr:free_intr () in
  (* Stub client: reassemble and verify against the pattern. *)
  let client = Udp.create client_if ~port:9 ~rcvbuf:(256 * 1024) () in
  let received = ref 0 and corrupt = ref 0 in
  Udp.set_upcall client
    (Some
       (fun dg ->
         let payload = dg.Udp.d_payload in
         for i = 0 to Bytes.length payload - 1 do
           if Bytes.get payload i <> Programs.pattern_byte (!received + i) then
             incr corrupt
         done;
         received := !received + Bytes.length payload));
  let client_addr = Udp.addr client in
  let _server =
    Machine.spawn m ~name:"video-server" (fun () ->
        let fs =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive)
            ~ninodes:16
        in
        Machine.mount m "/" fs;
        let env = Syscall.make_env m in
        (* Produce the movie. *)
        let fd = Syscall.openf env "/movie" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
        let buf = Bytes.create 65536 in
        let rec fill off =
          if off < movie_bytes then begin
            Programs.fill_pattern buf ~file_off:off;
            ignore (Syscall.write env fd buf ~pos:0 ~len:65536);
            fill (off + 65536)
          end
        in
        fill 0;
        Syscall.fsync env fd;
        Syscall.close env fd;
        Kpath_buf.Cache.invalidate_dev (Machine.cache m) (Machine.blkdev drive);
        (* Serve it, paced to the video rate. *)
        let src = Syscall.openf env "/movie" [ Syscall.O_RDONLY ] in
        let sock = Syscall.socket env server_if ~port:5 () in
        Syscall.connect env sock client_addr;
        let started = Machine.now m in
        let pace sent =
          let target =
            Time.add started (Time.span_of_bytes ~bytes_per_sec:rate sent)
          in
          let now = Machine.now m in
          if Time.(target > now) then
            Kpath_proc.Sched.sleep (Machine.sched m) (Time.diff target now)
        in
        (match mode with
         | `Splice ->
           let rec serve sent =
             if sent < movie_bytes then begin
               let n =
                 Syscall.splice env ~src ~dst:sock
                   (min chunk (movie_bytes - sent))
               in
               pace (sent + n);
               serve (sent + n)
             end
           in
           serve 0
         | `Process ->
           let dgram = Bytes.create 8192 in
           let rec serve sent =
             if sent < movie_bytes then begin
               let n = Syscall.read env src dgram ~pos:0 ~len:8192 in
               if n > 0 then begin
                 ignore (Syscall.write env sock dgram ~pos:0 ~len:n);
                 pace (sent + n);
                 serve (sent + n)
               end
             end
           in
           serve 0);
        Syscall.close env src;
        Syscall.close env sock)
  in
  Machine.run m;
  let cpu = Kpath_proc.Sched.cpu (Machine.sched m) in
  Format.printf "%-8s server: %d/%d bytes delivered, %d corrupt, CPU %a@."
    (match mode with `Splice -> "splice" | `Process -> "process")
    !received movie_bytes !corrupt Kpath_proc.Cpu.pp cpu;
  !received = movie_bytes && !corrupt = 0

let () =
  Format.printf "streaming a %d MB movie at %.1f MB/s to a network client:@."
    (movie_bytes / 1024 / 1024)
    (rate /. 1e6);
  let process_ok = run ~mode:`Process in
  let splice_ok = run ~mode:`Splice in
  if not (process_ok && splice_ok) then exit 1
