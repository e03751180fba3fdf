open Kpath_sim
open Kpath_proc

type addr = { a_if : int; a_port : int }

type datagram = { d_from : addr; d_payload : bytes }

type t = {
  nif : Netif.t;
  ports : t Inttbl.t;  (* the interface's demux table *)
  port : int;
  rcvbuf : int;
  queue : datagram Queue.t;
  mutable queued_bytes : int;
  mutable upcall : (datagram -> unit) option;
  mutable waiters : (unit -> unit) list;
  mutable closed : bool;
  stats : Stats.t;
}

(* Port demultiplexing tables, one per interface, keyed by interface id
   in a registry owned by the net, so the tables go when the simulation
   does. *)
type Netif.ext += Udp_ports of t Inttbl.t Inttbl.t

let k_upcalls = Stats.key "udp.upcalls"
let k_drops = Stats.key "udp.drops"
let k_rx = Stats.key "udp.rx"
let k_tx = Stats.key "udp.tx"

let port_tables net =
  match
    List.find_map
      (function Udp_ports tables -> Some tables | _ -> None)
      (Netif.exts net)
  with
  | Some tables -> tables
  | None ->
    let tables = Inttbl.create 16 in
    Netif.add_ext net (Udp_ports tables);
    tables

let rec table_for nif =
  let port_tables = port_tables (Netif.net nif) in
  match Inttbl.find_opt port_tables (Netif.id nif) with
  | Some tbl -> tbl
  | None ->
    let tbl = Inttbl.create 16 in
    Inttbl.add port_tables (Netif.id nif) tbl;
    (* One shared rx upcall per interface dispatches to sockets. *)
    Netif.set_proto_rx nif ~proto:17 (fun frame ->
        match Inttbl.find tbl frame.Netif.f_port_dst with
        | sock -> deliver_ref sock frame
        | exception Not_found -> ());
    tbl

(* A datagram is the whole of its frame's view ({!sendto}). Its payload
   has no free hook, so the datagram keeps the bytes themselves past the
   frame's release, aliasing the sender's buffer. *)
and deliver_ref sock (frame : Netif.frame) =
  if not sock.closed then begin
    let dg =
      {
        d_from = { a_if = frame.Netif.f_src; a_port = frame.Netif.f_port_src };
        d_payload = Payload.data frame.Netif.f_pl;
      }
    in
    match sock.upcall with
    | Some fn ->
      Stats.incr (Stats.at sock.stats k_upcalls);
      fn dg
    | None ->
      let size = Bytes.length dg.d_payload in
      if sock.queued_bytes + size > sock.rcvbuf then
        Stats.incr (Stats.at sock.stats k_drops)
      else begin
        Queue.push dg sock.queue;
        sock.queued_bytes <- sock.queued_bytes + size;
        Stats.incr (Stats.at sock.stats k_rx);
        let ws = sock.waiters in
        sock.waiters <- [];
        List.iter (fun w -> w ()) (List.rev ws)
      end
  end

let create nif ~port ?(rcvbuf = 64 * 1024) () =
  let ports = table_for nif in
  if Inttbl.mem ports port then
    invalid_arg (Printf.sprintf "Udp.create: port %d in use" port);
  let sock =
    {
      nif;
      ports;
      port;
      rcvbuf;
      queue = Queue.create ();
      queued_bytes = 0;
      upcall = None;
      waiters = [];
      closed = false;
      stats = Stats.create ();
    }
  in
  Inttbl.add ports port sock;
  sock

let addr t = { a_if = Netif.id t.nif; a_port = t.port }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Inttbl.remove t.ports t.port;
    Queue.clear t.queue;
    t.queued_bytes <- 0;
    let ws = t.waiters in
    t.waiters <- [];
    List.iter (fun w -> w ()) (List.rev ws)
  end

(* A pooled frame with no header bytes whose view is the whole datagram,
   so the wire carries exactly the datagram's bytes. *)
let sendto t ~dst payload =
  if t.closed then invalid_arg "Udp.sendto: closed socket";
  Stats.incr (Stats.at t.stats k_tx);
  let fr = Netif.alloc_frame (Netif.net t.nif) in
  fr.Netif.f_dst <- dst.a_if;
  fr.Netif.f_proto <- 17;
  fr.Netif.f_port_src <- t.port;
  fr.Netif.f_port_dst <- dst.a_port;
  let pl = Payload.of_bytes payload in
  Netif.frame_set_view fr pl ~off:0 ~len:(Bytes.length payload);
  Payload.release pl (* the frame holds the only reference *);
  Netif.transmit t.nif fr

let try_recv t =
  if Queue.is_empty t.queue then None
  else begin
    let dg = Queue.pop t.queue in
    t.queued_bytes <- t.queued_bytes - Bytes.length dg.d_payload;
    Some dg
  end

let rec recv t =
  match try_recv t with
  | Some dg -> Some dg
  | None ->
    if t.closed then None
    else begin
      Process.block "udp-recv" (fun w -> t.waiters <- w :: t.waiters);
      recv t
    end

let set_upcall t fn =
  t.upcall <- fn;
  match fn with
  | Some fn ->
    (* Drain anything that arrived before the splice was attached. *)
    let rec drain () =
      match try_recv t with
      | Some dg ->
        fn dg;
        drain ()
      | None -> ()
    in
    drain ()
  | None -> ()

let pending t = Queue.length t.queue

let drops t = Stats.get t.stats "udp.drops"

