open Kpath_sim
open Kpath_dev

(* Frames are mutable, slab-pooled records, one kind for every
   transport. A frame carries the transport header in its pooled
   [f_hdr] buffer ([f_len] live bytes) and its data as a zero-copy view
   of [f_pl_len] bytes at [f_pl_off] into a shared refcounted
   {!Payload.t} — one immutable block buffer can back every sink's
   segments with no per-client copy. Every TCP segment and every UDP
   datagram is such a view.

   Frames return to their net's free list as soon as the receive upcall
   returns (delivery is synchronous under the interrupt injector),
   releasing their payload view. A receiver keeps data through the
   view, never by holding the frame: {!Tcp} retains it in its receive
   buffer without copying, and {!Udp} keeps a datagram's bytes. *)
type frame = {
  mutable f_src : int;
  mutable f_dst : int;
  mutable f_proto : int;
  mutable f_port_src : int;
  mutable f_port_dst : int;
  f_hdr : bytes;  (* transport header, 32 bytes *)
  mutable f_len : int;  (* live bytes of f_hdr *)
  mutable f_pl : Payload.t;  (* Payload.none = header only *)
  mutable f_pl_off : int;
  mutable f_pl_len : int;
  f_dlcb : unit -> unit;  (* persistent delivery closure *)
  mutable f_next : frame;  (* intrusive free-list / tx-queue link *)
}

type iface = {
  nif_id : int;
  nif_name : string;
  net : net;
  intr : Blkdev.intr;
  (* Direct receive slots for the two transports, 6 = TCP, 17 = UDP. *)
  mutable rx_tcp : (frame -> unit) option;
  mutable rx_udp : (frame -> unit) option;
  (* The transmit queue: one per interface, serialised at the segment's
     bandwidth. A single persistent completion closure keeps
     steady-state transmission allocation-free. *)
  mutable tx_head : frame;
  mutable tx_tail : frame;
  mutable tx_busy : bool;
  mutable tx_cur : frame;  (* the frame on the wire *)
  mutable tx_done : unit -> unit;
  mutable cur_rx : frame;  (* frame being handed to the upcall *)
  mutable rx_dispatch : unit -> unit;  (* persistent rx closure *)
  stats : Stats.t;
  st_tx : Stats.counter;
  st_tx_bytes : Stats.counter;
  st_tx_lost : Stats.counter;
  st_rx : Stats.counter;
  st_rx_bytes : Stats.counter;
  st_no_rx : Stats.counter;
}

and net = {
  mutable exts : ext list;  (* transport state owned by the segment *)
  engine : Engine.t;
  bandwidth : float;
  ifaces : iface Inttbl.t;
  mutable last_id : int;  (* the last interface id handed out *)
  mutable loss : float;
  mutable loss_rng : Rng.t;
  mutable free_frames : frame;  (* intrusive slab free list *)
  mutable pool_size : int;
}

and ext = ..

type t = iface

let nop () = ()

(* End-of-list sentinel for the intrusive links; never enqueued, never
   mutated after construction. *)
let rec nil_frame =
  {
    f_src = -1;
    f_dst = -1;
    f_proto = 0;
    f_port_src = 0;
    f_port_dst = 0;
    f_hdr = Bytes.empty;
    f_len = 0;
    f_pl = Payload.none;
    f_pl_off = 0;
    f_pl_len = 0;
    f_dlcb = nop;
    f_next = nil_frame;
  }

let max_ifaces = 0x7fff

let mtu = 9000

(* A frame's propagation delay, the same on every segment: 100 us, a
   local segment's order. Experiments vary a segment's bandwidth, never
   its delay. *)
let latency = Time.us 100

(* Interrupt service charged to an interface's host per frame. *)
let rx_intr_service = Time.us 80
let tx_intr_service = Time.us 40

let k_tx = Stats.key "netif.tx"
let k_tx_bytes = Stats.key "netif.tx_bytes"
let k_tx_lost = Stats.key "netif.tx_lost"
let k_rx = Stats.key "netif.rx"
let k_rx_bytes = Stats.key "netif.rx_bytes"
let k_no_rx = Stats.key "netif.dropped_no_rx"

let create_net ?(bandwidth = 1.25e6) engine =
  if not (bandwidth > 0.0) then invalid_arg "Netif.create_net: bandwidth <= 0";
  {
    exts = [];
    engine;
    bandwidth;
    ifaces = Inttbl.create 8;
    last_id = 0;
    loss = 0.0;
    loss_rng = Rng.create ~seed:1;
    free_frames = nil_frame;
    pool_size = 0;
  }

(* {1 Frame pool} *)

let release_frame net fr =
  Payload.release fr.f_pl;
  fr.f_pl <- Payload.none;
  fr.f_pl_off <- 0;
  fr.f_pl_len <- 0;
  fr.f_len <- 0;
  fr.f_next <- net.free_frames;
  net.free_frames <- fr

(* [find], not [find_opt]: the option box would be the only per-frame
   allocation left on the delivery path. *)
let deliver_frame net fr =
  match Inttbl.find net.ifaces fr.f_dst with
  | dst ->
    dst.cur_rx <- fr;
    dst.intr ~service:rx_intr_service dst.rx_dispatch
  | exception Not_found -> release_frame net fr

let alloc_frame net =
  let fr = net.free_frames in
  if fr != nil_frame then begin
    net.free_frames <- fr.f_next;
    fr.f_next <- nil_frame;
    fr
  end
  else begin
    net.pool_size <- net.pool_size + 1;
    let rec fr =
      {
        f_src = 0;
        f_dst = 0;
        f_proto = 0;
        f_port_src = 0;
        f_port_dst = 0;
        f_hdr = Bytes.create 32;
        f_len = 0;
        f_pl = Payload.none;
        f_pl_off = 0;
        f_pl_len = 0;
        f_dlcb = (fun () -> deliver_frame net fr);
        f_next = nil_frame;
      }
    in
    fr
  end

let frame_set_view fr pl ~off ~len =
  if off < 0 || len < 0 || off + len > Payload.length pl then
    invalid_arg "Netif.frame_set_view: bad range";
  Payload.retain pl;
  fr.f_pl <- pl;
  fr.f_pl_off <- off;
  fr.f_pl_len <- len

let frame_bytes fr = fr.f_len + fr.f_pl_len

let pool_size net = net.pool_size

(* {1 Transmission} *)

let rec tx_pump t =
  if (not t.tx_busy) && t.tx_head != nil_frame then begin
    let fr = t.tx_head in
    t.tx_head <- fr.f_next;
    if t.tx_head == nil_frame then t.tx_tail <- nil_frame;
    fr.f_next <- nil_frame;
    t.tx_busy <- true;
    t.tx_cur <- fr;
    let wire_bytes = frame_bytes fr + 42 (* eth+ip headers *) in
    ignore
      (Engine.schedule_after t.net.engine
         (Time.span_of_bytes ~bytes_per_sec:t.net.bandwidth wire_bytes)
         t.tx_done)
  end

and tx_complete t =
  let net = t.net in
  let fr = t.tx_cur in
  t.tx_cur <- nil_frame;
  t.tx_busy <- false;
  Stats.incr t.st_tx;
  Stats.add t.st_tx_bytes (frame_bytes fr);
  t.intr ~service:tx_intr_service nop;
  let dropped = net.loss > 0.0 && Rng.float net.loss_rng 1.0 < net.loss in
  if dropped then begin
    Stats.incr t.st_tx_lost;
    release_frame net fr
  end
  else ignore (Engine.schedule_after net.engine latency fr.f_dlcb);
  tx_pump t

let transmit t fr =
  if frame_bytes fr > mtu then begin
    release_frame t.net fr;
    invalid_arg "Netif.transmit: payload exceeds MTU"
  end;
  if not (Inttbl.mem t.net.ifaces fr.f_dst) then begin
    release_frame t.net fr;
    invalid_arg "Netif.transmit: unknown destination"
  end;
  fr.f_src <- t.nif_id;
  fr.f_next <- nil_frame;
  if t.tx_tail == nil_frame then begin
    t.tx_head <- fr;
    t.tx_tail <- fr
  end
  else begin
    t.tx_tail.f_next <- fr;
    t.tx_tail <- fr
  end;
  tx_pump t

(* {1 Interfaces} *)

let attach net ~name ~intr () =
  if net.last_id = max_ifaces then
    invalid_arg "Netif.attach: segment has no interface id left";
  net.last_id <- net.last_id + 1;
  let stats = Stats.create () in
  let t =
    {
      nif_id = net.last_id;
      nif_name = name;
      net;
      intr;
      rx_tcp = None;
      rx_udp = None;
      tx_head = nil_frame;
      tx_tail = nil_frame;
      tx_busy = false;
      tx_cur = nil_frame;
      tx_done = nop;
      cur_rx = nil_frame;
      rx_dispatch = nop;
      stats;
      st_tx = Stats.at stats k_tx;
      st_tx_bytes = Stats.at stats k_tx_bytes;
      st_tx_lost = Stats.at stats k_tx_lost;
      st_rx = Stats.at stats k_rx;
      st_rx_bytes = Stats.at stats k_rx_bytes;
      st_no_rx = Stats.at stats k_no_rx;
    }
  in
  t.tx_done <- (fun () -> tx_complete t);
  t.rx_dispatch <-
    (fun () ->
      let fr = t.cur_rx in
      t.cur_rx <- nil_frame;
      let handler =
        match fr.f_proto with
        | 6 -> t.rx_tcp
        | 17 -> t.rx_udp
        | _ -> None
      in
      (match handler with
       | Some fn ->
         Stats.incr t.st_rx;
         Stats.add t.st_rx_bytes (frame_bytes fr);
         fn fr
       | None -> Stats.incr t.st_no_rx);
      (* The upcall has returned: the frame can recycle now. Receivers
         keep data through the payload view, never by holding the
         frame. *)
      release_frame net fr);
  Inttbl.add net.ifaces t.nif_id t;
  t

let id t = t.nif_id

let net t = t.net

let engine (net : net) = net.engine

let exts (net : net) = net.exts

let add_ext (net : net) e = net.exts <- e :: net.exts

let set_proto_rx t ~proto fn =
  match proto with
  | 6 -> t.rx_tcp <- Some fn
  | 17 -> t.rx_udp <- Some fn
  | p -> invalid_arg (Printf.sprintf "Netif.set_proto_rx: protocol %d" p)

let set_loss net ?(seed = 1) p =
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Netif.set_loss: probability";
  net.loss <- p;
  net.loss_rng <- Rng.create ~seed

let stats t = t.stats
