open Kpath_sim
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

type openfile = { of_kind : kind; mutable of_fasync : bool }

type table = {
  mutable next : int;
  slots : openfile Inttbl.t;
  mutable fds : int list;
      (* open descriptors, descending — [next] is monotonic, so alloc
         is an O(1) cons and [all_fds] a reversal, never a sort *)
}

let create () = { next = 3; slots = Inttbl.create 16; fds = [] }

let alloc t kind =
  let fd = t.next in
  t.next <- fd + 1;
  Inttbl.add t.slots fd { of_kind = kind; of_fasync = false };
  t.fds <- fd :: t.fds;
  fd

let get t fd =
  match Inttbl.find t.slots fd with
  | f -> f
  | exception Not_found ->
    Errno.raise_errno Errno.EBADF (Printf.sprintf "fd %d" fd)

let close t fd =
  let f = get t fd in
  Inttbl.remove t.slots fd;
  t.fds <- List.filter (fun x -> x <> fd) t.fds;
  f

let all_fds t = List.rev t.fds
