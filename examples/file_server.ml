(* File server: GET a file over TCP, served by splice.

   A miniature HTTP-flavoured server: the client sends "GET <path>\n",
   the server replies "OK <size>\n" and then streams the file — either
   with a read/write loop or with a single file-to-TCP splice, the
   in-kernel path that the world later got as sendfile(2). Two machines
   (separate CPUs) share one simulated clock and an Ethernet-class
   segment.

   Run with: dune exec examples/file_server.exe *)

open Kpath_sim
open Kpath_net
open Kpath_kernel
open Kpath_workloads

let file_bytes = 2 * 1024 * 1024

let serve ~mode =
  let engine = Engine.create () in
  let server = Machine.create ~engine () in
  let clientm = Machine.create ~engine () in
  let net = Netif.create_net ~bandwidth:2.5e6 engine in
  let srv_if = Netif.attach net ~name:"srv" ~intr:(Machine.intr server) () in
  let cli_if = Netif.attach net ~name:"cli" ~intr:(Machine.intr clientm) () in
  let drive = Machine.make_drive server ~name:"rz58" ~kind:`Rz58 () in
  let ok = ref false in

  let _srv =
    Machine.spawn server ~name:"httpd" (fun () ->
        let fs =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache server) (Machine.blkdev drive)
            ~ninodes:16
        in
        Machine.mount server "/" fs;
        let env = Syscall.make_env server in
        (* Publish the document. *)
        let fd = Syscall.openf env "/movie.mpg" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
        let chunk = Bytes.create 65536 in
        let rec fill off =
          if off < file_bytes then begin
            Programs.fill_pattern chunk ~file_off:off;
            ignore (Syscall.write env fd chunk ~pos:0 ~len:65536);
            fill (off + 65536)
          end
        in
        fill 0;
        Syscall.fsync env fd;
        Syscall.close env fd;
        Kpath_buf.Cache.invalidate_dev (Machine.cache server)
          (Machine.blkdev drive);
        (* Accept one request. *)
        let l = Syscall.tcp_listen env srv_if ~port:80 in
        let cfd = Syscall.tcp_accept env l in
        let req = Bytes.create 256 in
        let n = Syscall.read env cfd req ~pos:0 ~len:256 in
        let line = Bytes.sub_string req 0 n in
        (match String.split_on_char ' ' (String.trim line) with
         | [ "GET"; path ] ->
           let ffd = Syscall.openf env path [ Syscall.O_RDONLY ] in
           let size = Syscall.file_size env ffd in
           let hdr = Bytes.of_string (Printf.sprintf "OK %d\n" size) in
           ignore (Syscall.write env cfd hdr ~pos:0 ~len:(Bytes.length hdr));
           (match mode with
            | `Sendfile ->
              ignore (Syscall.splice env ~src:ffd ~dst:cfd Syscall.splice_eof)
            | `ReadWrite ->
              let buf = Bytes.create 8192 in
              let rec pump () =
                let n = Syscall.read env ffd buf ~pos:0 ~len:8192 in
                if n > 0 then begin
                  ignore (Syscall.write env cfd buf ~pos:0 ~len:n);
                  pump ()
                end
              in
              pump ());
           Syscall.close env ffd
         | _ ->
           let e = Bytes.of_string "ERR bad request\n" in
           ignore (Syscall.write env cfd e ~pos:0 ~len:(Bytes.length e)));
        Syscall.close env cfd)
  in

  let _cli =
    Machine.spawn clientm ~name:"curl" (fun () ->
        let env = Syscall.make_env clientm in
        let rec connect tries =
          match
            Syscall.tcp_connect env cli_if ~port:4000
              ~dst:{ Tcp.a_if = Netif.id srv_if; a_port = 80 }
              ()
          with
          | fd -> fd
          | exception Errno.Unix_error (Errno.EIO, _) when tries > 0 ->
            connect (tries - 1)
        in
        let fd = connect 3 in
        let get = Bytes.of_string "GET /movie.mpg\n" in
        ignore (Syscall.write env fd get ~pos:0 ~len:(Bytes.length get));
        (* Read header line. *)
        let buf = Bytes.create 8192 in
        let line = Buffer.create 16 in
        let rec read_line () =
          let n = Syscall.read env fd buf ~pos:0 ~len:1 in
          if n = 1 && Bytes.get buf 0 <> '\n' then begin
            Buffer.add_char line (Bytes.get buf 0);
            read_line ()
          end
        in
        read_line ();
        let size =
          match String.split_on_char ' ' (Buffer.contents line) with
          | [ "OK"; s ] -> int_of_string s
          | _ -> failwith "bad response"
        in
        (* Body: verify against the pattern. *)
        let got = ref 0 and bad = ref 0 in
        let rec body () =
          let n = Syscall.read env fd buf ~pos:0 ~len:8192 in
          if n > 0 then begin
            for i = 0 to n - 1 do
              if Bytes.get buf i <> Programs.pattern_byte (!got + i) then incr bad
            done;
            got := !got + n;
            body ()
          end
        in
        body ();
        Syscall.close env fd;
        ok := !got = size && !bad = 0)
  in
  Machine.run server;
  let cpu = Kpath_proc.Sched.cpu (Machine.sched server) in
  Format.printf "%-9s server: ok=%b, server CPU %a@."
    (match mode with `Sendfile -> "sendfile" | `ReadWrite -> "readwrite")
    !ok Kpath_proc.Cpu.pp cpu;
  !ok

let () =
  Format.printf "GET /movie.mpg (%d MB) over TCP:@." (file_bytes / 1024 / 1024);
  let readwrite_ok = serve ~mode:`ReadWrite in
  let sendfile_ok = serve ~mode:`Sendfile in
  if not (readwrite_ok && sendfile_ok) then exit 1
