(** TCP: a reliable byte-stream transport.

    A deliberately small but real TCP over {!Netif}: three-way
    handshake, MSS segmentation, cumulative acknowledgements, a sliding
    window bounded by the receiver's advertised buffer space, a persist
    timer that probes a zero window, reassembly of out-of-order and
    overlapping segments, retransmission of the first unacknowledged
    segment on a backed-off timeout or three duplicate ACKs, and FIN
    teardown. Enough to serve files over lossy links — the workload for
    which splice's file-to-socket path later became famous as
    [sendfile(2)].

    The send side keeps the unacknowledged stream as a chain of chunks:
    bytes copied in through {!send}/{!send_async} live in a ring
    buffer, while {!send_view} references a shared refcounted
    {!Kpath_sim.Payload.t} directly — segments built from a view carry
    it zero-copy all the way onto the wire, so a block fanned out to a
    million connections is stored once. A payload's references drop as
    its bytes are acknowledged; the last reference frees it.

    Connection state lives in per-net demultiplex tables held by the
    net itself, so independent simulation shards in different domains
    never share TCP state, and the tables go with their simulation.

    Blocking operations ({!accept}, {!connect}, {!send}, {!recv},
    {!close}) must run in a process coroutine; the callback variants
    ({!on_accept}, {!connect_async}, {!send_async}, {!send_view},
    {!set_rcv_hook}, {!shutdown}) are interrupt-context entry points
    that need no process at all — the shape a million-client fan-out
    requires. *)

open Kpath_sim

type listener
(** A passive (listening) endpoint. *)

type conn
(** One connection. *)

type addr = { a_if : int; a_port : int }
(** Interface id + port (same shape as {!Udp.addr}). *)

val protocol_number : int
(** 6, the IP protocol number used on {!Netif} frames. *)

val header_bytes : int
(** Bytes of TCP header carried in each frame payload. *)

val mss : Netif.net -> int
(** Maximum segment payload for a given network's MTU. *)

val listen :
  Netif.t -> port:int -> ?backlog:int -> ?stats:Stats.t -> unit -> listener
(** Bind a listening port. [stats] is shared by every accepted
    connection (a fan-out server's million conns need not each own a
    registry); by default each accepted connection gets a private one.
    Raises [Invalid_argument] if the port is in use on this
    interface. *)

val accept : listener -> conn
(** Block until a connection has completed its handshake. Process
    context. *)

val on_accept : listener -> (conn -> unit) -> unit
(** Callback-mode accept: every incoming connection is handed to the
    callback at SYN time (interrupt context), bypassing the backlog
    queue entirely. *)

val connect :
  Netif.t -> port:int -> dst:addr -> ?rcvbuf:int -> ?sndbuf:int -> unit -> conn
(** Active open: block until established (SYN retransmitted on loss).
    Process context. Raises [Failure] after too many SYN timeouts. *)

val connect_async :
  Netif.t ->
  port:int ->
  dst:addr ->
  ?rcvbuf:int ->
  ?sndbuf:int ->
  ?stats:Stats.t ->
  ?rcv_hook:(bytes -> pos:int -> len:int -> unit) ->
  unit ->
  conn
(** Active open without blocking: sends the SYN and returns the
    connection in [syn_sent]; use {!on_established} to learn when the
    handshake completes. [stats] shares a registry across connections;
    [rcv_hook] installs the zero-copy receive hook from the start (see
    {!set_rcv_hook}). *)

val on_established : conn -> (unit -> unit) -> unit
(** Run [k] once the handshake completes (immediately if it already
    has; never, if the connection dies first). *)

val send : conn -> bytes -> pos:int -> len:int -> unit
(** Queue [len] bytes on the stream, blocking while the send buffer is
    full (i.e. until the peer's window opens). Process context. Raises
    [Invalid_argument] on a closed connection. *)

val send_async : conn -> bytes -> pos:int -> len:int -> (unit -> unit) -> unit
(** Like {!send} but callback-based: [k] fires (interrupt context) once
    every byte has been accepted into the send buffer. Writers are
    admitted in FIFO order. The splice sink. *)

val send_view : conn -> Payload.t -> pos:int -> len:int -> (unit -> unit) -> unit
(** Zero-copy {!send_async}: queue [len] bytes of [pl] on the stream by
    reference — no copy into the send buffer, segments carry views of
    [pl] onto the wire, and [pl] stays referenced until the peer has
    acknowledged every byte. Back-pressure and [k] behave exactly as in
    {!send_async}: the same send-buffer budget gates admission.
    Segments never span a view boundary, so wire segmentation follows
    block boundaries rather than pure MSS packing. *)

val recv : conn -> bytes -> pos:int -> len:int -> int
(** Block for at least one byte of in-order data; returns the count
    copied, or [0] at end of stream (peer closed). Process context. *)

val set_rcv_hook : conn -> (bytes -> pos:int -> len:int -> unit) option -> unit
(** Install (or clear) the zero-copy receive hook: in-order data is
    handed to the hook the moment it arrives — [len] bytes at [pos],
    valid only during the call (frames recycle when it returns) — and
    is never buffered, so the advertised window never closes and
    {!recv} must not be used. Raises [Invalid_argument] if buffered
    data is pending. *)

val shutdown : conn -> unit
(** Asynchronous half-close: mark the stream finished; the FIN goes out
    once queued data drains. Never blocks — the callback-driven
    counterpart of {!close}. Further sends raise. *)

val close : conn -> unit
(** Half-close and linger: send FIN after all queued data and block
    until the peer has acknowledged both. Process context. Further
    {!send}s raise. *)

val state_name : conn -> string
(** Diagnostic: ["syn_sent"], ["established"], ["fin_wait"], ["closed"]... *)

val local_addr : conn -> addr

val remote_addr : conn -> addr

val bytes_sent : conn -> int
(** Stream bytes accepted from the application so far. *)

val bytes_acked : conn -> int
(** Stream bytes the peer has acknowledged. *)

val bytes_received : conn -> int
(** In-order stream bytes received (delivered to {!recv} buffers or the
    receive hook). *)

val retransmits : conn -> int
(** Segments retransmitted (loss recovery): resent data and FINs. *)

val persist_probes : conn -> int
(** One-byte probes sent by the persist timer into the peer's zero
    window. A probe spends no sequence space and is not a
    retransmission. *)

val ooo_bytes : conn -> int
(** Diagnostic: bytes held in the reassembly queue beyond the next
    in-order byte. [0] once a stream has been read to its end. *)

val cwnd : conn -> int
(** Current congestion window, bytes (starts at 2 MSS, slow start /
    AIMD thereafter). *)

val srtt : conn -> float option
(** Smoothed round-trip time in seconds, once at least one sample has
    been taken. *)

val rto : conn -> Time.span
(** Current retransmission timeout. *)

val stats : conn -> Stats.t
(** [tcp.segs_out], [tcp.segs_in], [tcp.segs_data_in], [tcp.retx],
    [tcp.fast_retx], [tcp.syn_retx], [tcp.persist_probes]. *)
