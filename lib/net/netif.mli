(** Network interfaces on a shared segment.

    A {!net} models one Ethernet-class segment: every attached
    interface can send to every other by interface id. Each interface
    has one transmit queue and serialises its own transmissions at the
    link bandwidth (the classic 10 Mbit/s bottleneck), whatever their
    destinations. A transmitted frame propagates with a small latency
    and is delivered to the destination through its receive interrupt.
    Delivery is a callback; {!Udp} and {!Tcp} demultiplex.

    Frames are mutable slab-pooled records of one kind, as BSD sends
    datagrams and segments from one mbuf pool. A frame carries the
    transport header in its pooled [f_hdr] and its data as an
    offset+length view into a shared refcounted
    {!Kpath_sim.Payload.t} — the zero-copy path: one immutable block
    buffer backs every client's segments. Every TCP segment and every
    UDP datagram is such a frame; there are no unpooled frames. Frames
    recycle to the net's free list the moment the receive upcall
    returns, so steady-state forwarding allocates nothing per frame.
    Receivers keep data through the view, never by stashing the frame:
    {!Tcp}'s receive buffers retain views, not copies, and {!Udp} keeps
    a datagram's bytes. *)

open Kpath_sim
open Kpath_dev

type net
(** A network segment. *)

type t
(** An attached interface. *)

type frame = {
  mutable f_src : int;  (** source interface id *)
  mutable f_dst : int;  (** destination interface id *)
  mutable f_proto : int;  (** transport protocol (17 = UDP, 6 = TCP) *)
  mutable f_port_src : int;
  mutable f_port_dst : int;
  f_hdr : bytes;
      (** the transport header, written by the sender into the frame's
          own 32 bytes; receivers must not mutate *)
  mutable f_len : int;  (** live bytes of [f_hdr] *)
  mutable f_pl : Payload.t;
      (** shared payload view; {!Payload.none} when header only *)
  mutable f_pl_off : int;
  mutable f_pl_len : int;
  f_dlcb : unit -> unit;  (** owned by the pool — do not touch *)
  mutable f_next : frame;  (** owned by the pool — do not touch *)
}

val create_net : ?bandwidth:float -> Engine.t -> net
(** A segment. Default bandwidth: 10 Mbit/s (1.25 MB/s). Every segment
    has the 9000-byte {!mtu} and a 100 us latency. *)

val mtu : int
(** 9000 bytes: an FDDI-class local segment, as a 1992 multimedia lab
    would covet. *)

val attach : net -> name:string -> intr:Blkdev.intr -> unit -> t
(** Attach an interface. [intr] injects its interrupt costs into that
    host's CPU (stub hosts pass a free-running injector) and must run
    its callback synchronously: 80 us per frame received and 40 us per
    frame sent. Each interface owns its {!stats} registry. Raises
    [Invalid_argument] once the segment has handed out {!max_ifaces}
    ids. *)

val max_ifaces : int
(** Interfaces one segment can number: 32767, so an id fits the 15-bit
    field transports pack into demux keys. *)

val id : t -> int
(** The interface id: numbered from 1 on each segment, unique there. *)

val net : t -> net
(** The segment an interface is attached to. *)

val engine : net -> Engine.t
(** The event engine driving the segment (for transport timers). *)

type ext = ..
(** Transport state owned by a segment (a protocol's demux tables).
    Held in the [net] itself, it is dropped with the simulation that
    owns the segment. Transports add their own constructors. *)

val exts : net -> ext list
(** The segment's transport state, most recently added first. *)

val add_ext : net -> ext -> unit

val set_proto_rx : t -> proto:int -> (frame -> unit) -> unit
(** Install the receive upcall for TCP ([proto] 6) or UDP (17); runs in
    interrupt context. Raises [Invalid_argument] for any other protocol.
    Frames arriving for a protocol with no upcall are dropped and
    counted. The frame is only valid during the upcall: it recycles
    when the upcall returns. *)

(** {1 Transmission} *)

val alloc_frame : net -> frame
(** Take a frame from the net's slab pool (growing it if empty). The
    caller fills in destination, protocol and ports, writes the
    transport header into [f_hdr] and sets [f_len] to its size,
    attaches the data with {!frame_set_view}, and hands the frame to
    {!transmit}. *)

val frame_set_view : frame -> Payload.t -> off:int -> len:int -> unit
(** Attach a zero-copy data view ([retain]s the payload; the reference
    drops when the frame is released after delivery or loss). A
    receiver that keeps the bytes retains the payload itself. *)

val frame_bytes : frame -> int
(** Total payload bytes on the wire: [f_len + f_pl_len]. *)

val transmit : t -> frame -> unit
(** Queue a prepared frame for transmission. Raises [Invalid_argument],
    releasing the frame first, if its {!frame_bytes} exceed the MTU or
    the destination id is unknown. *)

val pool_size : net -> int
(** Pooled frames ever created for this net. *)

val set_loss : net -> ?seed:int -> float -> unit
(** Drop each transmitted frame independently with the given probability
    (deterministic splitmix64 stream; [seed] defaults to 1) — for
    exercising retransmission. [0.0] disables loss. Raises
    [Invalid_argument] unless the probability is in \[0, 1). *)

val stats : t -> Stats.t
(** [netif.tx], [netif.rx], [netif.dropped_no_rx], [netif.tx_bytes],
    [netif.rx_bytes], [netif.tx_lost]. *)

