(** splice endpoints.

    The I/O objects a splice can connect, as §5.1 enumerates them:
    regular files on a local filesystem, UDP sockets, the framebuffer as
    a source, and character devices (audio / video DACs) as sinks; and
    {!write}, the write side that sends blocks to every sink but a TCP
    stream. *)

open Kpath_dev
open Kpath_buf
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

val sink_map :
  Fs.t -> Inode.t -> off_blocks:int -> nblocks:int -> total:int -> int array
(** A file sink's physical block table (§5.2): entry [i] backs logical
    block [off_blocks + i], allocated by the [bmap] that skips zero-fill
    ([Fs.bmap_alloc ~zero:false]). The file grows to cover [total] bytes
    from [off_blocks], and cached copies of the mapped blocks are dropped
    so the coming write-around cannot leave them stale. Process context;
    may raise [Fs_error.Error Enospc]. *)

val describe_sink : sink -> string
(** Human-readable endpoint name for traces and errors. *)

val write :
  Cache.t ->
  sink ->
  map:int array ->
  lblk:int ->
  bytes array ->
  len:int ->
  (string option -> unit) ->
  unit
(** [write cache sink ~map ~lblk areas ~len k] is the splice write side
    (§5.4) that graph edges and the recording pump share: send one
    block, or a file run of blocks physically contiguous from
    [map.(lblk)], and call [k] with [None] once the sink has accepted it
    or [Some reason] if it failed. A file writes [areas] through a bare
    header ({!Kpath_buf.Cache.getblk_hdr}), one block-long data area per
    block, and [k] runs in the completion interrupt with the device's
    error. The device's store keeps those areas by reference, so the
    caller hands them over sealed: no one writes them again (a cache
    buffer's area is marked [Buf.b_sealed]). A character device or a
    UDP socket takes the first [len] bytes of [areas.(0)]: UDP copies
    them into a datagram at once, and a character device copies them
    into its FIFO as space frees. [map] and [lblk] matter only for
    files. The caller of a character device may reuse the area once [k]
    has run, not before: the device's writer queue reads it until then.
    A TCP sink raises [Invalid_argument]: a graph edge queues its runs
    on the connection itself ({!Kpath_net.Tcp.send_view},
    {!Kpath_net.Tcp.send_async}). Interrupt context. *)
