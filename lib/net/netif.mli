(** Network interfaces on a shared segment.

    A {!net} models one Ethernet-class segment: every attached
    interface can send to every other by interface id. Each interface
    has one transmit queue and serialises its own transmissions at the
    link bandwidth (the classic 10 Mbit/s bottleneck), whatever their
    destinations. A transmitted frame propagates with a small latency
    and is delivered to the destination through its receive interrupt.
    Delivery is a callback; {!Udp} and {!Tcp} demultiplex.

    Frames are mutable slab-pooled records. Beyond the inline
    [f_payload] header bytes, a frame can carry an offset+length view
    into a shared refcounted {!Kpath_sim.Payload.t} — the zero-copy
    path: one immutable block buffer backs every client's segments, and
    every TCP data segment is a view. Pooled frames ({!alloc_frame})
    recycle to the net's free list the moment the receive upcall
    returns, so steady-state forwarding allocates nothing per frame;
    receivers retain the view to keep its bytes ({!Tcp}'s receive
    buffers hold views, not copies), never stash the frame. *)

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
  mutable f_payload : bytes;
      (** inline payload (transport header, possibly data) — not
          copied; receivers must not mutate *)
  mutable f_len : int;  (** live bytes of [f_payload] *)
  mutable f_pl : Payload.t;
      (** shared payload view; {!Payload.none} when inline only *)
  mutable f_pl_off : int;
  mutable f_pl_len : int;
  f_pooled : bool;
  f_hdr : bytes;  (** owned by the pool — do not touch *)
  f_dlcb : unit -> unit;  (** owned by the pool — do not touch *)
  mutable f_next : frame;  (** owned by the pool — do not touch *)
}

val create_net :
  ?bandwidth:float ->
  ?latency:Time.span ->
  ?mtu:int ->
  Engine.t ->
  net
(** A segment. Defaults: 10 Mbit/s (1.25 MB/s), 100 us latency,
    9000-byte MTU (an FDDI-class local segment, as a 1992 multimedia
    lab would covet). *)

val attach :
  net ->
  name:string ->
  ?rx_intr_service:Time.span ->
  ?tx_intr_service:Time.span ->
  intr:Blkdev.intr ->
  unit ->
  t
(** Attach an interface. [intr] injects its interrupt costs into that
    host's CPU (stub hosts pass a free-running injector) and must run
    its callback synchronously. Each interface owns its {!stats}
    registry. Raises [Invalid_argument] once the segment has handed out
    {!max_ifaces} ids. *)

val max_ifaces : int
(** Interfaces one segment can number: 32767, so an id fits the 15-bit
    field transports pack into demux keys. *)

val id : t -> int
(** The interface id: numbered from 1 on each segment, unique there. *)

val mtu : net -> int

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
(** Install the receive upcall for one transport protocol (runs in
    interrupt context; TCP and UDP dispatch through direct slots,
    other protocols through a small assoc list). Frames arriving for a
    protocol with no upcall are dropped and counted. The frame is only
    valid during the upcall: pooled frames recycle when it returns. *)

val send :
  t -> dst:int -> ?proto:int -> port_src:int -> port_dst:int -> bytes -> unit
(** Queue one frame for transmission (default protocol: UDP). The
    frame is unpooled — the payload may be aliased by the receiver
    indefinitely. Raises [Invalid_argument] if the payload exceeds the
    MTU or the destination id is unknown. *)

(** {1 Pooled zero-copy transmission} *)

val alloc_frame : net -> frame
(** Take a frame from the net's slab pool (growing it if empty). The
    caller fills in destination, protocol, ports and payload — either
    writing a transport header into [f_hdr] (32 bytes, set [f_payload]
    to it and [f_len] to the header size), or installing fresh bytes —
    optionally attaches a view with {!frame_set_view}, and hands the
    frame to {!transmit}. *)

val frame_set_view : frame -> Payload.t -> off:int -> len:int -> unit
(** Attach a zero-copy data view ([retain]s the payload; the reference
    drops when the frame is released after delivery or loss). A
    receiver that keeps the bytes retains the payload itself. *)

val frame_bytes : frame -> int
(** Total payload bytes on the wire: [f_len + f_pl_len]. *)

val transmit : t -> frame -> unit
(** Queue a prepared frame. Raises like {!send} (releasing the frame
    first). *)

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

