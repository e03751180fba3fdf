(** The system-call layer.

    The UNIX-flavoured API workload programs are written against. Every
    call charges the machine's per-syscall overhead, and the read/write
    family additionally charges the user/kernel copy ([copyin] /
    [copyout]) at the memory copy rate — exactly the costs splice
    eliminates. All calls must run inside a process coroutine; blocking
    calls check for pending signals on return, which is when installed
    handlers execute.

    Create one {!env} at the top of each process body:
    {[
      Machine.spawn m ~name:"cp" (fun () ->
          let env = Syscall.make_env m in
          let src = Syscall.openf env "/src/movie" [ O_RDONLY ] in
          ...)
    ]} *)

open Kpath_sim
open Kpath_proc
open Kpath_net
open Kpath_core

type env
(** A process's view of the kernel: machine + descriptor table. *)

val make_env : Machine.t -> env
(** Call inside the process body ([Process.self] is captured). *)

val machine : env -> Machine.t

val proc : env -> Process.t

type open_flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT  (** create the file if absent *)
  | O_TRUNC  (** truncate to empty on open *)

(** {1 Files and devices} *)

val openf : env -> string -> open_flag list -> int
(** Open a path: a registered character device or framebuffer under
    [/dev], else a file resolved through the mount table. *)

val close : env -> int -> unit

val read : env -> int -> bytes -> pos:int -> len:int -> int
(** Read into a user buffer; returns bytes read (0 at EOF). Charges
    copyout. On a framebuffer descriptor, blocks for (the prefix of) the
    next frame. *)

val write : env -> int -> bytes -> pos:int -> len:int -> int
(** Write from a user buffer; charges copyin. On a character device,
    blocks until the data is accepted (rate pacing). On a connected
    socket, sends one datagram. *)

val lseek : env -> int -> int -> int
(** Set the file offset (absolute); returns it. [ESPIPE] on
    non-seekable descriptors. *)

val fsync : env -> int -> unit
(** Force the file's data to its device — the call [cp] issues at the
    end of a copy in the paper's experiments. *)

val unlink : env -> string -> unit

val mkdir : env -> string -> unit

val hardlink : env -> string -> string -> unit
(** [hardlink env existing fresh] — link(2). Both paths must resolve to
    the same filesystem ([EXDEV]). *)

val rename : env -> string -> string -> unit
(** rename(2); same-filesystem only ([EXDEV]). *)

val fcntl_setfl : env -> int -> fasync:bool -> unit
(** Set or clear FASYNC — the paper's switch between asynchronous
    (SIGIO-completing) and synchronous splice. *)

val file_size : env -> int -> int
(** Size of the file behind a descriptor ([fstat]'s one useful field). *)

(** {1 Sockets} *)

val socket : env -> Netif.t -> port:int -> ?rcvbuf:int -> unit -> int

val socket_of : env -> Udp.t -> int
(** Adopt an already-created socket into the descriptor table (the
    moral equivalent of inheriting a descriptor). *)

val connect : env -> int -> Udp.addr -> unit
(** Set the default peer (enables [write] and splice-to-socket). *)

val sendto : env -> int -> Udp.addr -> bytes -> pos:int -> len:int -> unit
(** One datagram; charges copyin plus protocol processing. *)

val recvfrom : env -> int -> bytes -> pos:int -> len:int -> int * Udp.addr
(** Blocking receive; returns (bytes, sender). Charges copyout plus
    protocol processing. *)

val socket_addr : env -> int -> Udp.addr

(** {1 TCP} *)

val tcp_listen : env -> Netif.t -> port:int -> Tcp.listener
(** Bind a listening TCP port (the listener is not a descriptor; pass it
    to {!tcp_accept}). *)

val tcp_accept : env -> Tcp.listener -> int
(** Block for an inbound connection; returns its descriptor. *)

val tcp_connect :
  env -> Netif.t -> port:int -> dst:Tcp.addr -> ?rcvbuf:int -> unit -> int
(** Active open; blocks for the handshake and returns the descriptor.
    [read]/[write] on it are stream operations; it is a valid splice
    sink (the [sendfile] path). [rcvbuf] sizes the receive buffer
    (setsockopt SO_RCVBUF; default 64 KB). Raises [EIO] on connect
    timeout. *)

val tcp_conn : env -> int -> Tcp.conn
(** The connection behind a TCP descriptor ([EINVAL] otherwise). *)

(** {1 splice} *)

val splice_eof : int
(** The SPLICE_EOF size value. *)

val splice : env -> src:int -> dst:int -> ?config:Flowctl.config -> int -> int
(** [splice env ~src ~dst size] — the paper's system call (§3). Moves
    [size] bytes ({!splice_eof} = until end of file) from the object
    behind [src] to the object behind [dst] inside the kernel, under
    the flow-control watermarks [config] (default {!Flowctl.default}).

    If either descriptor has FASYNC set, returns immediately with the
    scheduled byte count (0 for unbounded socket splices) and delivers
    SIGIO to the caller on completion; otherwise blocks until the
    transfer finishes and returns the bytes moved — for an unbounded
    socket source that means until the splice is aborted. File
    descriptor offsets advance by the transfer size and must be
    block-aligned on entry ([EINVAL]). A TCP descriptor as [dst] streams
    the file over the connection — [sendfile(2)], fifteen years early. *)

val splice_start : env -> src:int -> dst:int -> ?config:Flowctl.config -> int -> Splice.t
(** Expert form: start the splice and hand back the descriptor (for
    custom flow control, aborting, progress inspection). Offsets advance
    immediately. *)

(** {1 splice graphs} *)

val splice_graph :
  env ->
  srcs:int list ->
  dsts:int list ->
  ?config:Flowctl.config ->
  ?filters:Kpath_graph.Graph.filter list ->
  ?window:int ->
  int ->
  int
(** [splice_graph env ~srcs ~dsts size] — the graph form of {!splice}:
    one source fanned out to many sinks, or many sources fanned in to
    one file sink ([EINVAL] for many-to-many). Sources must be file
    descriptors; sinks may be files, TCP connections, connected UDP
    sockets or character devices. [size] bytes stream from each source
    ({!splice_eof} = to end of file).

    Fan-out reads each source block from the device {e once} and aliases
    the buffer to every sink — N clients cost one disk pass. [config]
    sets each edge's flow control, [filters] its in-kernel stages,
    [window] the per-source buffer budget.

    Blocking/FASYNC behaviour follows {!splice}: with FASYNC on any
    descriptor the call returns 0 immediately and SIGIO arrives on
    completion; otherwise it blocks and returns the total bytes
    delivered over all edges, raising [EIO] if the whole graph aborts.
    File offsets advance (sources by their streamed size, file sinks by
    the total received) and must be block-aligned ([EINVAL]). *)

val splice_graph_start :
  env ->
  srcs:int list ->
  dsts:int list ->
  ?config:Flowctl.config ->
  ?filters:Kpath_graph.Graph.filter list ->
  ?window:int ->
  int ->
  Kpath_graph.Graph.t
(** Expert form: build, start and hand back the graph (for per-edge
    inspection, {!Kpath_graph.Graph.abort_edge}, custom completion).
    Offsets advance immediately. *)

val prog_load : env -> string -> (Kpath_vm.Vm.prog, string) result
(** Load a filter program from its textual form: copyin the source,
    assemble it, and run the in-kernel verifier. [Ok prog] is a
    proof-carrying handle attachable to graph edges with
    {!Kpath_graph.Graph.filter.Prog} (through the [filters] argument of
    {!splice_graph}); [Error diag] renders the verifier's structured
    diagnostic — the violated rule's name and the offending instruction
    offset — or the assembler's parse error. Verification happens once,
    here, at load time; the data path then runs the program with no
    further checks, which is the point of the BPF-style split. *)

(** {1 Signals and timers} *)

val sigaction : env -> Signal.number -> (unit -> unit) option -> unit
(** Install or remove a handler (runs in process context). *)

val setitimer : env -> Time.span option -> unit
(** Arm a recurring interval timer delivering SIGALRM ([Some span]) or
    disarm it ([None]). *)

val pause : env -> unit
(** Sleep until a signal is delivered, then run its handler. *)

val sleep : env -> Time.span -> unit
(** Interruptible sleep (signals cut it short and run handlers). *)

val getpid : env -> int
