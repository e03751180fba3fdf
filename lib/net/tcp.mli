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

    Its acknowledgement discipline is 4.3BSD's. The receiver delays
    ACKs (RFC 1122 s4.2.3.2): it acknowledges every second in-order
    segment at once, and a lone one after 40 ms unless a segment it
    sends carries the ACK first; an out-of-order segment, one that fills
    a gap, a duplicate, one the window cuts and a FIN are acknowledged
    at once. The sender avoids the silly window (RFC 1122 s4.2.3.4): it
    sends a segment only if it is a full MSS, reaches the end of its
    view or of its run of copied writes, or is at least half the
    largest window the peer has offered.
    It holds anything smaller until an ACK opens the window or, with
    nothing in flight, the persist timer forces it out. The persist
    interval is BSD's 5 s floor, while the retransmission timer keeps
    its RFC 6298 RTO. A fast retransmit fires on the third duplicate
    ACK, and later duplicates for the same hole resend nothing. A reader
    announces its window once the window the sender sees has nearly
    closed and has reopened by two segments, as 4.4BSD's tcp_output
    requires, or by half a receive buffer smaller than four segments.

    Both directions keep their bytes as BSD's sockbuf keeps mbufs: a
    chain of chunks, each a view of a refcounted
    {!Kpath_sim.Payload.t} holding one reference to it. {!send_view}
    appends a view of the caller's payload; {!send} and {!send_async}
    copy each piece the send buffer admits into a payload of its own.
    Bytes inside one chunk ship as its view, with no copy. A segment
    never crosses the edge of a shared view, so a block fanned out to
    every connection goes onto the wire zero-copy and is stored once.
    It may pack across adjacent copied chunks, copying them into a
    fresh payload as BSD's [m_copy] does, so copied writes go out in
    whole segments whatever their sizes. The receiver retains the
    segment's view, in order or held for reassembly, and {!recv}
    copies it into the caller's buffer: that copyout is the receive
    path's only copy. A payload's references drop as its bytes are
    acknowledged, read or discarded by {!close}; the last reference
    frees it. {!view_chunks} counts the references socket buffers hold,
    so a run can check that each is released exactly once.

    {!accept} returns a connection at the peer's SYN, before the
    handshake completes. It establishes only on a segment that carries
    an ACK, re-sends its SYN|ACK to a repeated SYN, and gives up after
    8 unanswered SYN|ACKs, as a connecting side does after 8 SYNs.

    Connection state lives in per-net demultiplex tables held by the
    net itself, so the tables go with their simulation. A connection is
    keyed by one immediate int packing its local and remote interface
    ids and ports, which is why ports must lie in 0..65535.

    Blocking operations ({!accept}, {!connect}, {!send}, {!recv},
    {!close}) must run in a process coroutine; {!send_async},
    {!send_view} and {!shutdown} never block, so splice and splice-graph
    sinks call them from interrupt context. *)

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

val mss : int
(** Maximum segment payload: {!Netif.mtu} less the header. *)

val listen : Netif.t -> port:int -> unit -> listener
(** Bind a listening port, which queues up to 8 connections for
    {!accept} and drops SYNs beyond them. Each accepted connection owns
    its {!stats} registry. Raises [Invalid_argument] if the port is
    outside 0..65535 or in use on this interface. *)

val accept : listener -> conn
(** Block until a peer's SYN has arrived, and return its connection,
    which may still await the peer's ACK. Process context. *)

val connect : Netif.t -> port:int -> dst:addr -> ?rcvbuf:int -> unit -> conn
(** Active open: block until established (SYN retransmitted on loss).
    [rcvbuf] sizes the receive buffer (default 64 KB); the send buffer
    holds 64 KB. Process context. Raises [Invalid_argument] if either port is outside
    0..65535 or [dst.a_if] is no possible interface id, and [Failure]
    after too many SYN timeouts. *)

val send : conn -> bytes -> pos:int -> len:int -> unit
(** Queue [len] bytes on the stream, blocking while the send buffer is
    full (i.e. until the peer's window opens). Process context. Raises
    [Invalid_argument] on a closed connection. *)

val send_async : conn -> bytes -> pos:int -> len:int -> (unit -> unit) -> unit
(** Like {!send} but callback-based: [k] fires (interrupt context) once
    every byte has been copied into the send buffer, each admitted
    piece into a payload of its own; [data] is free again from then on.
    Writers are admitted in FIFO order. The splice sink for bytes a
    splice holds privately, such as a filter program's copy. *)

val send_view : conn -> Payload.t -> pos:int -> len:int -> (unit -> unit) -> unit
(** Zero-copy {!send_async}: queue [len] bytes of [pl] on the stream by
    reference — no copy into the send buffer, segments carry views of
    [pl] onto the wire, and [pl] stays referenced until the peer has
    acknowledged every byte. Back-pressure and [k] behave exactly as in
    {!send_async}: the same send-buffer budget gates admission.
    Segments never cross a view's edge, so wire segmentation follows
    block boundaries rather than pure MSS packing. *)

val recv : conn -> bytes -> pos:int -> len:int -> int
(** Block for at least one byte of in-order data; returns the count
    copied, or [0] at end of stream (peer closed). Process context. *)

val shutdown : conn -> unit
(** Asynchronous half-close: mark the stream finished; the FIN goes out
    once queued data drains, the writes still waiting for send-buffer
    space included. Never blocks — the interrupt-context counterpart of
    {!close}. Further sends raise. *)

val close : conn -> unit
(** Discard unread data, then half-close and linger: send FIN after all
    queued data and block until the peer has acknowledged both, or the
    connection is given up. An accepted connection still awaiting the
    peer's ACK lingers the same way. Process context. Data arriving
    later is acknowledged and dropped. Further {!send}s raise. *)

val remote_addr : conn -> addr

val retransmits : conn -> int
(** Segments retransmitted (loss recovery): resent data and FINs. The
    [tcp.retx] counter of {!stats}. *)

val persist_probes : conn -> int
(** One-byte probes sent by the persist timer into the peer's zero
    window, at most one per 5 s. A probe spends no sequence space and is
    not a retransmission. When the window is open but too small for
    silly-window avoidance, the persist timer instead sends what it
    allows, which is not counted here. The [tcp.persist_probes] counter
    of {!stats}. *)

val ooo_bytes : conn -> int
(** Diagnostic: bytes held in the reassembly queue beyond the next
    in-order byte. [0] once a stream has been read to its end. *)

val view_chunks : Netif.net -> int
(** Socket-buffer chunks on this segment, in either direction and in
    reassembly, copied or not: each holds a payload reference. [0] once
    every stream has been acknowledged and read or closed: each
    reference was released. *)

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
    [tcp.fast_retx], [tcp.syn_retx], [tcp.persist_probes], and
    [tcp.delayed_acks]: ACKs delaying saved, each an owed ACK that a
    segment sent for another reason (a second in-order segment's ACK,
    a window update, data) carried before the delayed-ACK timer ran. *)
