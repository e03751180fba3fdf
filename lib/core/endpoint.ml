open Kpath_dev
open Kpath_buf
open Kpath_fs
open Kpath_net

type source =
  | Src_file of { fs : Fs.t; ino : Inode.t; off_blocks : int }
  | Src_socket of Udp.t
  | Src_framebuffer of Framebuffer.t
  | Src_mic of Micdev.t

type sink =
  | Dst_file of { fs : Fs.t; ino : Inode.t; off_blocks : int }
  | Dst_socket of { sock : Udp.t; dst : Udp.addr }
  | Dst_tcp of Tcp.conn
  | Dst_chardev of Chardev.t

let src_file fs ino ?(off_blocks = 0) () =
  if off_blocks < 0 then invalid_arg "Endpoint.src_file: negative offset";
  Src_file { fs; ino; off_blocks }

let dst_file fs ino ?(off_blocks = 0) () =
  if off_blocks < 0 then invalid_arg "Endpoint.dst_file: negative offset";
  Dst_file { fs; ino; off_blocks }

let sink_map fs (ino : Inode.t) ~off_blocks ~nblocks ~total =
  let map =
    Array.init nblocks (fun i ->
        Fs.bmap_alloc fs ino (off_blocks + i) ~zero:false)
  in
  let new_size = (off_blocks * Fs.block_size fs) + total in
  if new_size > ino.Inode.size then begin
    ino.Inode.size <- new_size;
    ino.Inode.dirty <- true
  end;
  Array.iter
    (fun phys -> Cache.invalidate_cached (Fs.cache fs) (Fs.dev fs) phys)
    map;
  map

let describe_sink = function
  | Dst_file { ino; _ } -> Printf.sprintf "file(ino%d)" ino.Inode.ino
  | Dst_socket { dst; _ } -> Printf.sprintf "udp(->%d:%d)" dst.Udp.a_if dst.Udp.a_port
  | Dst_tcp conn ->
    let a = Tcp.remote_addr conn in
    Printf.sprintf "tcp(->%d:%d)" a.Tcp.a_if a.Tcp.a_port
  | Dst_chardev cd -> Printf.sprintf "chardev(%s)" (Chardev.name cd)

let[@kpath.intr] write cache sink ~map ~lblk areas ~len k =
  match sink with
  | Dst_file { fs; _ } ->
    (* A bare header over the areas: one completion, and the store keeps
       the areas themselves. *)
    let hdr = Cache.getblk_hdr cache (Fs.dev fs) map.(lblk) in
    hdr.Buf.b_cluster <- areas;
    Cache.awrite_call cache hdr ~iodone:(fun hb ->
        let err = hb.Buf.b_error in
        Cache.release_hdr cache hb;
        match err with
        | Some (Blkdev.Io_error reason) -> k (Some reason)
        | None -> k None)
  | Dst_chardev cd -> Chardev.write_async cd areas.(0) 0 len (fun () -> k None)
  | Dst_socket { sock; dst } ->
    Udp.sendto sock ~dst (Bytes.sub areas.(0) 0 len);
    k None
  | Dst_tcp _ -> invalid_arg "Endpoint.write: a TCP sink is written by its edge"
