(* Video fan-out: one movie file streamed to N viewers by a splice graph.

   The broadcast case the two-endpoint splice cannot express: N TCP
   clients all want the same RZ58 file. A read/write server would burn
   one disk pass and one copy loop per client; a per-client splice would
   still re-read the file N times (or hope the buffer cache holds it).
   The splice graph reads each block from the disk exactly once and
   aliases the buffer to every connection under a reference count, so
   the disk cost is that of a single viewer no matter how many watch.

   Each edge carries a Throttle filter pacing delivery to the playback
   rate — the graph's per-edge flow control keeps a slow or paused
   viewer from stalling the rest.

   Run with: dune exec examples/video_fanout.exe *)

open Kpath_sim
open Kpath_net
open Kpath_kernel
open Kpath_workloads

let file_bytes = 1024 * 1024
let viewers = 6
let playback_rate = 1.5e6 (* bytes/second per viewer *)

let () =
  let engine = Engine.create () in
  let server = Machine.create ~engine () in
  let clientm = Machine.create ~engine () in
  let net = Netif.create_net ~bandwidth:40e6 engine in
  let srv_if = Netif.attach net ~name:"srv" ~intr:(Machine.intr server) () in
  let cli_if = Netif.attach net ~name:"cli" ~intr:(Machine.intr clientm) () in
  let drive = Machine.make_drive server ~name:"rz58" ~kind:`Rz58 () in
  let received = Array.make viewers 0 in
  let bad = ref 0 in
  let device_reads = ref 0 in

  let _srv =
    Machine.spawn server ~name:"broadcaster" (fun () ->
        let fs =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache server) (Machine.blkdev drive)
            ~ninodes:16
        in
        Machine.mount server "/" fs;
        let env = Syscall.make_env server in
        (* Publish the movie, then drop the cache so the stream starts
           cold — every block must come off the disk (once). *)
        let fd =
          Syscall.openf env "/movie.mpg" [ Syscall.O_CREAT; Syscall.O_WRONLY ]
        in
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
        (* Let the audience in, then one splice_graph call streams to
           everyone: 1 source, [viewers] TCP sinks, a throttle per edge. *)
        let l = Syscall.tcp_listen env srv_if ~port:80 in
        let cfds = List.init viewers (fun _ -> Syscall.tcp_accept env l) in
        let reads_before =
          Stats.get (Kpath_buf.Cache.stats (Machine.cache server))
            "cache.dev_reads"
        in
        let src = Syscall.openf env "/movie.mpg" [ Syscall.O_RDONLY ] in
        let n =
          Syscall.splice_graph env ~srcs:[ src ] ~dsts:cfds
            ~filters:[ Kpath_graph.Graph.Throttle playback_rate ]
            Syscall.splice_eof
        in
        device_reads :=
          Stats.get (Kpath_buf.Cache.stats (Machine.cache server))
            "cache.dev_reads"
          - reads_before;
        Format.printf "server: delivered %d bytes over %d edges@." n viewers;
        Syscall.close env src;
        List.iter (Syscall.close env) cfds)
  in

  for i = 0 to viewers - 1 do
    ignore
      (Machine.spawn clientm ~name:(Printf.sprintf "viewer%d" i) (fun () ->
           let env = Syscall.make_env clientm in
           let rec connect tries =
             match
               Syscall.tcp_connect env cli_if ~port:(5000 + i)
                 ~dst:{ Tcp.a_if = Netif.id srv_if; a_port = 80 }
                 ()
             with
             | fd -> fd
             | exception Errno.Unix_error (Errno.EIO, _) when tries > 0 ->
               connect (tries - 1)
           in
           let fd = connect 5 in
           let buf = Bytes.create 8192 in
           let rec watch () =
             let n = Syscall.read env fd buf ~pos:0 ~len:8192 in
             if n > 0 then begin
               for j = 0 to n - 1 do
                 if Bytes.get buf j <> Programs.pattern_byte (received.(i) + j)
                 then incr bad
               done;
               received.(i) <- received.(i) + n;
               watch ()
             end
           in
           watch ();
           Syscall.close env fd))
  done;

  Machine.run server;
  let all_complete = Array.for_all (fun n -> n = file_bytes) received in
  Format.printf
    "%d viewers, %d KB movie at %.1f MB/s per edge: complete=%b corrupt=%d@."
    viewers (file_bytes / 1024) (playback_rate /. 1e6) all_complete !bad;
  Format.printf
    "device reads: %d — one disk pass for the whole audience (%.1f per viewer)@."
    !device_reads
    (float_of_int !device_reads /. float_of_int viewers);
  if not (all_complete && !bad = 0) then exit 1
