(** splice endpoints.

    The I/O objects a splice can connect, as §5.1 enumerates them:
    regular files on a local filesystem, UDP sockets, the framebuffer as
    a source, and character devices (audio / video DACs) as sinks. *)

open Kpath_dev
open Kpath_fs
open Kpath_net

type source =
  | Src_file of { fs : Fs.t; ino : Inode.t; off_blocks : int }
      (** file contents starting at a block-aligned offset *)
  | Src_socket of Udp.t  (** datagrams arriving on a socket *)
  | Src_framebuffer of Framebuffer.t  (** captured frames *)
  | Src_mic of Micdev.t
      (** an input character device — the recording path *)

type sink =
  | Dst_file of { fs : Fs.t; ino : Inode.t; off_blocks : int }
  | Dst_socket of { sock : Udp.t; dst : Udp.addr }
      (** datagrams sent to a fixed peer *)
  | Dst_tcp of Tcp.conn
      (** a reliable stream — the [sendfile(2)] path *)
  | Dst_chardev of Chardev.t  (** rate-paced output device *)

val src_file : Fs.t -> Inode.t -> ?off_blocks:int -> unit -> source
(** File source; [off_blocks] defaults to 0. *)

val dst_file : Fs.t -> Inode.t -> ?off_blocks:int -> unit -> sink
(** File sink; [off_blocks] defaults to 0. *)

val describe_sink : sink -> string
(** Human-readable endpoint name for traces and errors. *)
