(** Per-process file descriptor tables. *)

open Kpath_dev
open Kpath_fs
open Kpath_net

type file_handle = {
  fs : Fs.t;
  ino : Inode.t;
  mutable offset : int;
  readable : bool;
  writable : bool;
}

type socket_handle = { sock : Udp.t; mutable peer : Udp.addr option }

type kind =
  | File of file_handle
  | Chardev of Chardev.t
  | Socket of socket_handle
  | Tcp of Tcp.conn
  | Framebuffer of Framebuffer.t

type openfile = {
  of_kind : kind;
  mutable of_fasync : bool;  (** FASYNC set via [fcntl] *)
}

type table
(** A descriptor table. *)

val create : unit -> table
(** An empty table; descriptors are allocated from 3 upwards (0–2
    reserved in the UNIX spirit). *)

val alloc : table -> kind -> int
(** Install an open file; returns its descriptor. *)

val get : table -> int -> openfile
(** Raises [Errno.Unix_error (EBADF, _)] for unknown descriptors. *)

val close : table -> int -> openfile
(** Remove and return the entry (caller finishes teardown). Raises
    [EBADF] when absent. *)

val all_fds : table -> int list
(** Currently open descriptors, ascending. *)
