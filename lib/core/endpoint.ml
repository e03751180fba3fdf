open Kpath_dev
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

let describe_sink = function
  | Dst_file { ino; _ } -> Printf.sprintf "file(ino%d)" ino.Inode.ino
  | Dst_socket { dst; _ } -> Printf.sprintf "udp(->%d:%d)" dst.Udp.a_if dst.Udp.a_port
  | Dst_tcp conn ->
    let a = Tcp.remote_addr conn in
    Printf.sprintf "tcp(->%d:%d)" a.Tcp.a_if a.Tcp.a_port
  | Dst_chardev cd -> Printf.sprintf "chardev(%s)" (Chardev.name cd)
