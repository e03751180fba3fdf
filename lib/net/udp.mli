(** UDP sockets.

    A thin datagram layer over {!Netif}: sockets bind a port on an
    interface, receive into a byte-bounded socket buffer (overflow drops
    the datagram, as UDP does), and deliver either to blocked readers
    (process context) or to an upcall installed by splice — the hook that
    lets a socket-to-socket splice forward datagrams entirely inside the
    kernel, without a read/write round trip through a process. *)

type t
(** A UDP socket. *)

type addr = { a_if : int; a_port : int }
(** Interface id + port. *)

type datagram = { d_from : addr; d_payload : bytes }

val create : Netif.t -> port:int -> ?rcvbuf:int -> unit -> t
(** [create nif ~port ()] binds a socket. Default receive buffer: 64 KB.
    Raises [Invalid_argument] if the port is taken on this interface. *)

val addr : t -> addr
(** The socket's own address. *)

val close : t -> unit
(** Unbind; queued datagrams are discarded, blocked readers return
    [None]. *)

val sendto : t -> dst:addr -> bytes -> unit
(** Queue one datagram for transmission (device-level; CPU costs of the
    user send path are charged by the syscall layer). It travels as a
    pooled frame whose payload view is the whole of the bytes, and the
    receiver aliases them: the caller must not mutate them afterwards.
    Raises [Invalid_argument] if the datagram exceeds the MTU or the
    destination interface is unknown. *)

val recv : t -> datagram option
(** Block until a datagram arrives; [None] if the socket is closed while
    waiting. Process context. *)

val try_recv : t -> datagram option
(** Non-blocking receive. *)

val set_upcall : t -> (datagram -> unit) option -> unit
(** Divert arriving datagrams to a callback (interrupt context),
    bypassing the socket buffer. Installing an upcall first drains any
    queued datagrams into it. Used by splice sources. *)

val pending : t -> int
(** Datagrams queued in the socket buffer. *)

val drops : t -> int
(** Datagrams dropped because the socket buffer was full. *)

