open Kpath_sim
open Kpath_proc

type addr = { a_if : int; a_port : int }

let protocol_number = 6

let header_bytes = 21

let mss = Netif.mtu - header_bytes

(* {1 Wire format}

   Frame payload = 21-byte header + data:
   byte 0: flags (1 SYN, 2 ACK, 4 FIN); 1-8: seq; 9-16: ack; 17-20: wnd.
   The header sits in the frame's pooled [f_hdr] and the data is the
   frame's shared payload view. *)

let f_syn = 1
let f_ack = 2
let f_fin = 4

let set_header b ~flags ~seq ~ack ~wnd =
  Bytes.set b 0 (Char.chr flags);
  Bytes.set_int64_le b 1 (Int64.of_int seq);
  Bytes.set_int64_le b 9 (Int64.of_int ack);
  Bytes.set_int32_le b 17 (Int32.of_int wnd)

(* A decoded segment's [g_len] data bytes are a view at [g_doff] into
   [g_pl]: the frame's own payload view, never copied. Frames recycle
   when the receive upcall returns, so a segment is only valid during
   input processing; whatever is kept retains the payload (receive
   buffer, out-of-order table). One mutable segment record per demux
   table is reused for every arrival — input processing is synchronous
   and never nests. *)
type seg = {
  mutable g_flags : int;
  mutable g_seq : int;
  mutable g_ack : int;
  mutable g_wnd : int;
  mutable g_pl : Payload.t;
  mutable g_doff : int;
  mutable g_len : int;
}

let decode_into (g : seg) (fr : Netif.frame) =
  if fr.Netif.f_len < header_bytes then false
  else begin
    let h = fr.Netif.f_hdr in
    g.g_flags <- Char.code (Bytes.get h 0);
    g.g_seq <- Int64.to_int (Bytes.get_int64_le h 1);
    g.g_ack <- Int64.to_int (Bytes.get_int64_le h 9);
    g.g_wnd <- Int32.to_int (Bytes.get_int32_le h 17);
    g.g_pl <- fr.Netif.f_pl;
    g.g_doff <- fr.Netif.f_pl_off;
    g.g_len <- fr.Netif.f_pl_len;
    true
  end

(* {1 Connections} *)

type state = Syn_sent | Syn_rcvd | Established | Fin_wait | Closed

(* An application write waiting for send-buffer space: either bytes to
   copy in as they are admitted ([pw_pl = Payload.none]) or a retained
   zero-copy view. *)
type pending_write = {
  pw_data : bytes;
  pw_pl : Payload.t;
  mutable pw_pos : int;
  mutable pw_len : int;
  pw_done : unit -> unit;
}

(* Both directions keep their stream bytes the way BSD's sockbuf keeps
   mbufs: a chain of chunks, appended at the tail and dropped from the
   front. Every chunk references [ck_len] bytes at [ck_off] of a
   refcounted payload and holds one reference to it, dropped when the
   chunk drains. A {e copied} chunk's payload is the send side's own
   copy of bytes an application wrote ({!send}, {!send_async}); any
   other chunk is a view of a payload shared with its writer. The
   receive side retains each segment's view, not a copy, and {!recv}'s
   copy into the caller's buffer is the only one (the copyout a read
   charges). No chunk is empty. *)
type chunk = {
  mutable ck_copied : bool;
  mutable ck_len : int;
  mutable ck_pl : Payload.t;
  mutable ck_off : int;
  mutable ck_next : chunk;
}

let rec nil_chunk =
  {
    ck_copied = false;
    ck_len = 0;
    ck_pl = Payload.none;
    ck_off = 0;
    ck_next = nil_chunk;
  }

(* The send buffer holds the stream interval [snd_una, accepted), its
   head always starting at [snd_una]; the receive buffer holds the
   in-order bytes the reader has not taken yet. The send buffer also
   remembers the chunk holding the last byte sent and the buffer's
   bytes before that chunk, as FreeBSD's [sb_sndptr] and
   [sb_sndptroff] do, so a segment finds its first chunk without
   walking the chunks already sent. *)
type sockbuf = {
  mutable sb_head : chunk;
  mutable sb_tail : chunk;
  mutable sb_cc : int;  (* bytes held *)
  sb_hiwat : int;  (* capacity *)
  mutable sb_sndptr : chunk;  (* nil when unset *)
  mutable sb_sndoff : int;
}

type conn = {
  nif : Netif.t;
  net : Netif.net;
  engine : Engine.t;
  tbl : tbl;
  lport : int;
  rif : int;
  rport : int;
  mutable st : state;
  (* send side *)
  snd : sockbuf;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable accepted : int; (* stream bytes taken from the application *)
  mutable peer_wnd : int;
  mutable max_sndwnd : int; (* the largest window the peer has offered *)
  mutable app_closed : bool;
  mutable fin_seq : int option; (* our FIN's sequence position *)
  pending : pending_write Queue.t;
  (* receive side *)
  rcv : sockbuf;
  mutable rcv_nxt : int;
  mutable rcv_shut : bool; (* the reader has closed: data is dropped *)
  mutable ooo : (int * chunk) list;
      (* segments held beyond rcv_nxt, ascending by start sequence;
         they may overlap each other and, once the gap fills, rcv_nxt *)
  mutable fin_at : int option; (* peer FIN position in its stream *)
  mutable fin_taken : bool;
  mutable rcv_waiters : (unit -> unit) list;
  mutable est_waiters : (unit -> unit) list;
  mutable rcv_adv : int; (* right edge of the window last advertised *)
  (* the delayed-ACK timer: pending exactly while an ACK is owed *)
  mutable dack : Engine.handle;
  mutable dack_cb : unit -> unit; (* persistent timeout closure *)
  (* congestion control *)
  mutable cwnd : int;
  mutable ssthresh : int;
  (* RTT estimation (RFC 6298 shape); one timed segment at a time,
     Karn's rule: samples are discarded across retransmissions *)
  mutable srtt : float; (* seconds; negative = no sample yet *)
  mutable rttvar : float;
  mutable rtt_seq : int; (* sequence the running sample will be acked at *)
  mutable rtt_sent : Time.t;
  mutable rtt_valid : bool;
  (* retransmission and persist: one timer, which is the persist timer
     while data waits unsent and nothing is in flight *)
  mutable rto : Time.span;
  mutable timer : Engine.handle; (* Engine.none when disarmed *)
  mutable timer_cb : unit -> unit; (* persistent timeout closure *)
  mutable persist : bool;
  mutable dup_acks : int;
  mutable syn_tries : int;
  stats : Stats.t;
  c_segs_out : Stats.counter;
  c_segs_in : Stats.counter;
  c_segs_data_in : Stats.counter;
  c_retx : Stats.counter;
  c_delayed_acks : Stats.counter;
}

and listener = {
  l_nif : Netif.t;
  l_port : int;
  l_queue : conn Queue.t;
  mutable l_waiters : (unit -> unit) list;
}

(* Per-net demux tables, hung off the net itself, so the tables go
   when the simulation does. *)
and tbl = {
  listeners : listener Inttbl.t; (* listen_key lif port *)
  conns : conn Inttbl.t; (* conn_key lif lport rif rport *)
  scratch : seg;
  mutable rx_handler : Netif.frame -> unit; (* one closure per net *)
  mutable free_chunks : chunk; (* chunk slab, recycled as chunks drain *)
  mutable views : int; (* live chunks, each holding a payload reference *)
}

type Netif.ext += Tcp_tables of tbl

(* Demux keys are one immediate int: ports fill 16 bits and interface
   ids 15 ({!Netif.max_ifaces}), so a listener's pair takes 31 bits and a
   connection's four 62. Ports outside the field are refused. *)
let valid_port p = p land lnot 0xffff = 0

let check_port what port =
  if not (valid_port port) then
    invalid_arg (Printf.sprintf "Tcp.%s: port %d out of range" what port)

let listen_key lif lport = (lif lsl 16) lor lport

let conn_key lif lport rif rport =
  (((listen_key lif lport lsl 15) lor rif) lsl 16) lor rport

let k_segs_out = Stats.key "tcp.segs_out"
let k_segs_in = Stats.key "tcp.segs_in"
let k_segs_data_in = Stats.key "tcp.segs_data_in"
let k_retx = Stats.key "tcp.retx"
let k_fast_retx = Stats.key "tcp.fast_retx"
let k_syn_retx = Stats.key "tcp.syn_retx"
let k_persist_probes = Stats.key "tcp.persist_probes"
let k_delayed_acks = Stats.key "tcp.delayed_acks"

let base_rto = Time.ms 200

let max_rto = Time.sec 2

let rwnd c = Int.max 0 (c.rcv.sb_hiwat - c.rcv.sb_cc)

let min_rto = Time.ms 50

(* How long a lone in-order segment's acknowledgement waits for a second
   segment, or an outgoing one, to carry it. RFC 1122 s4.2.3.2 allows up
   to 500 ms and BSD's fast timer sends it within 200 ms, but a delay
   near [min_rto] outlives the retransmission timer of a sender whose
   last segment in flight waits on it: at 200 ms bench sweep-fanout
   retransmits spuriously from 8 clients up (68 times at 256), at 40 ms
   never. *)
let delack = Time.ms 40

(* BSD's TCPTV_PERSMIN. BSD derives the persist interval from the
   smoothed RTT and backs it off toward 60 s, but never sets it below
   5 s, so on a LAN the floor sets the first intervals. Here every
   interval is the floor, without the backoff. A shorter one probes
   windows that a reader is about to reopen with its own window
   update. *)
let persist_min = Time.sec 5

(* RFC 6298-shaped RTO from a fresh RTT sample. *)
let rtt_sample c sample_s =
  if c.srtt < 0.0 then begin
    c.srtt <- sample_s;
    c.rttvar <- sample_s /. 2.0
  end
  else begin
    c.rttvar <- (0.75 *. c.rttvar) +. (0.25 *. Float.abs (c.srtt -. sample_s));
    c.srtt <- (0.875 *. c.srtt) +. (0.125 *. sample_s)
  end;
  let rto_s = c.srtt +. (4.0 *. c.rttvar) in
  c.rto <- Time.max min_rto (Time.min max_rto (Time.of_sec_f rto_s))

let in_flight c = c.snd_nxt - c.snd_una

let unsent c = c.accepted - c.snd_nxt

(* Unacknowledged data bytes (the send buffer's length); the FIN
   occupies one virtual position past these. *)
let unacked_data c = c.accepted - c.snd_una

(* {1 Socket buffers} *)

let sb_create hiwat =
  { sb_head = nil_chunk; sb_tail = nil_chunk; sb_cc = 0; sb_hiwat = hiwat;
    sb_sndptr = nil_chunk; sb_sndoff = 0 }

let alloc_chunk (tbl : tbl) =
  let ck = tbl.free_chunks in
  if ck != nil_chunk then begin
    tbl.free_chunks <- ck.ck_next;
    ck.ck_next <- nil_chunk;
    ck
  end
  else
    { ck_copied = false; ck_len = 0; ck_pl = Payload.none; ck_off = 0;
      ck_next = nil_chunk }

(* A chunk of [len] bytes at [off] in [pl]: the one place a chunk takes
   a payload reference. *)
let view_chunk tbl pl ~off ~len =
  let ck = alloc_chunk tbl in
  Payload.retain pl;
  tbl.views <- tbl.views + 1;
  ck.ck_pl <- pl;
  ck.ck_off <- off;
  ck.ck_len <- len;
  ck

(* The copy path's chunk: [len] bytes at [pos] in [data], copied into a
   payload that the chunk alone holds. *)
let copied_chunk tbl data ~pos ~len =
  let pl = Payload.of_bytes (Bytes.sub data pos len) in
  let ck = view_chunk tbl pl ~off:0 ~len in
  Payload.release pl;
  ck.ck_copied <- true;
  ck

(* Back to the slab, dropping its reference: exactly once, since a chunk
   is freed only when it leaves its chain or the reassembly queue. *)
let free_chunk tbl ck =
  Payload.release ck.ck_pl;
  tbl.views <- tbl.views - 1;
  ck.ck_copied <- false;
  ck.ck_len <- 0;
  ck.ck_pl <- Payload.none;
  ck.ck_off <- 0;
  ck.ck_next <- tbl.free_chunks;
  tbl.free_chunks <- ck

let sb_push sb ck =
  ck.ck_next <- nil_chunk;
  if sb.sb_tail == nil_chunk then sb.sb_head <- ck
  else sb.sb_tail.ck_next <- ck;
  sb.sb_tail <- ck;
  sb.sb_cc <- sb.sb_cc + ck.ck_len

(* Drop [n] <= [sb_cc] bytes from the front. A partly covered chunk
   shrinks in place (an acknowledged range is never retransmitted —
   recovery resends from [snd_una]); a drained chunk is freed, and the
   send pointer with it if it points there. *)
let rec sb_drop tbl sb n =
  if n > 0 then begin
    let ck = sb.sb_head in
    let m = Int.min n ck.ck_len in
    ck.ck_off <- ck.ck_off + m;
    ck.ck_len <- ck.ck_len - m;
    sb.sb_cc <- sb.sb_cc - m;
    if sb.sb_sndoff <> 0 then sb.sb_sndoff <- sb.sb_sndoff - m;
    if ck.ck_len = 0 then begin
      if ck == sb.sb_sndptr then sb.sb_sndptr <- nil_chunk;
      sb.sb_head <- ck.ck_next;
      if sb.sb_head == nil_chunk then sb.sb_tail <- nil_chunk;
      free_chunk tbl ck
    end;
    sb_drop tbl sb (n - m)
  end

let sb_flush tbl sb = sb_drop tbl sb sb.sb_cc

(* Copy [n] bytes of a chain, from [skip] into chunk [ck] on, into
   [dst]. *)
let rec copy_out ck ~skip dst dpos n =
  if n > 0 then begin
    let m = Int.min n (ck.ck_len - skip) in
    Bytes.blit (Payload.data ck.ck_pl) (ck.ck_off + skip) dst dpos m;
    copy_out ck.ck_next ~skip:0 dst (dpos + m) (n - m)
  end

(* {1 Segment transmission} *)

(* The window a segment about to go out advertises. The segment also
   acknowledges everything received, so it carries any ACK owed: the
   delayed-ACK timer stops, and the ACK it would have sent is saved. *)
let advertise c =
  if c.dack != Engine.none then begin
    Engine.cancel c.engine c.dack;
    c.dack <- Engine.none;
    Stats.incr c.c_delayed_acks
  end;
  let wnd = rwnd c in
  c.rcv_adv <- c.rcv_nxt + wnd;
  wnd

(* One segment: the header, written into the pooled frame's [f_hdr],
   and [len] data bytes at [off] in [pl] as the frame's view. *)
let tx c ~flags ~seq pl ~off ~len =
  let wnd = advertise c in
  let fr = Netif.alloc_frame c.net in
  set_header fr.Netif.f_hdr ~flags ~seq ~ack:c.rcv_nxt ~wnd;
  fr.Netif.f_len <- header_bytes;
  if len > 0 then Netif.frame_set_view fr pl ~off ~len;
  fr.Netif.f_dst <- c.rif;
  fr.Netif.f_proto <- protocol_number;
  fr.Netif.f_port_src <- c.lport;
  fr.Netif.f_port_dst <- c.rport;
  Stats.incr c.c_segs_out;
  Netif.transmit c.nif fr

(* Control segment (SYN / pure ACK / FIN): header only, no allocation. *)
let tx_ctrl c ~flags ~seq = tx c ~flags ~seq Payload.none ~off:0 ~len:0

(* Where stream position [seq] (>= snd_una) lies in the send buffer: the
   chunk covering it (nil past the end) and [seq]'s offset in that
   chunk. New data lies at or past the send pointer, so the walk starts
   there and visits at most the chunk holding the last byte sent and
   the one after it; a position before the pointer (a retransmission,
   a probe of a byte already sent) is walked to from the head. *)
let locate c seq =
  let rec walk ck skip =
    if ck == nil_chunk then (nil_chunk, 0)
    else if skip < ck.ck_len then (ck, skip)
    else walk ck.ck_next (skip - ck.ck_len)
  in
  let sb = c.snd and off = seq - c.snd_una in
  if sb.sb_sndptr != nil_chunk && off >= sb.sb_sndoff then
    walk sb.sb_sndptr (off - sb.sb_sndoff)
  else walk sb.sb_head off

(* Point the send pointer at the chunk holding the byte [skip] bytes
   into [ck], which starts [before] bytes into the buffer: the last byte
   a segment has just sent. *)
let rec set_sndptr sb ck ~before skip =
  if skip < ck.ck_len then begin
    sb.sb_sndptr <- ck;
    sb.sb_sndoff <- before
  end
  else set_sndptr sb ck.ck_next ~before:(before + ck.ck_len) (skip - ck.ck_len)

(* The bytes, at most [cap], one segment may carry from [inoff] into
   [ck] on. It never crosses the edge of a shared view, but packs
   copied bytes across the copied chunks that follow one another, as
   BSD's m_copy does across an mbuf chain: copied writes go out in
   whole segments whatever their sizes. The walk stops at [cap], so it
   costs in proportion to the segment's bytes however many small
   writes follow. *)
let room ck ~inoff cap =
  let rec run ck n =
    if n >= cap || ck == nil_chunk || not ck.ck_copied then n
    else run ck.ck_next (n + ck.ck_len)
  in
  let first = ck.ck_len - inoff in
  Int.min cap (if ck.ck_copied then run ck.ck_next first else first)

(* Data segment of [n] bytes, no more than {!room} allows, [inoff]
   into its first chunk [ck]. Bytes within the one chunk go as a view of its
   payload with no copy; bytes packed across copied chunks are copied
   into a fresh payload that the frame alone holds. *)
let tx_data c ~seq ck ~inoff n =
  if inoff + n <= ck.ck_len then
    tx c ~flags:f_ack ~seq ck.ck_pl ~off:(ck.ck_off + inoff) ~len:n
  else begin
    let b = Bytes.create n in
    copy_out ck ~skip:inoff b 0 n;
    let pl = Payload.of_bytes b in
    tx c ~flags:f_ack ~seq pl ~off:0 ~len:n;
    Payload.release pl
  end

(* At most [len] bytes at [seq] as one segment (a retransmission or a
   probe), less where its chunk or copied run ends. *)
let resend c ~seq ~len =
  let ck, inoff = locate c seq in
  let n = room ck ~inoff len in
  if n > 0 then tx_data c ~seq ck ~inoff n

(* New data at snd_nxt, timed if no sample is running (Karn's rule:
   retransmitted ranges never produce samples). *)
let send_new c ck ~inoff n =
  tx_data c ~seq:c.snd_nxt ck ~inoff n;
  set_sndptr c.snd ck ~before:(c.snd_nxt - c.snd_una - inoff) (inoff + n - 1);
  if not c.rtt_valid then begin
    c.rtt_valid <- true;
    c.rtt_seq <- c.snd_nxt + n;
    c.rtt_sent <- Engine.now c.engine
  end;
  c.snd_nxt <- c.snd_nxt + n

(* Unsent bytes the peer's window and the congestion window admit. *)
let usable c = Int.min (unsent c) (Int.min c.peer_wnd c.cwnd - in_flight c)

let send_pure_ack c = tx_ctrl c ~flags:f_ack ~seq:0

(* Resend the first unacknowledged segment (fast retransmit / RTO). *)
let retransmit_head c =
  Stats.incr c.c_retx;
  let n = Int.min (Int.min (unacked_data c) (in_flight c)) mss in
  if n > 0 then resend c ~seq:c.snd_una ~len:n
  else
    match c.fin_seq with
    | Some fs when c.snd_una >= fs -> tx_ctrl c ~flags:(f_fin lor f_ack) ~seq:fs
    | _ -> ()

(* {1 Timers} *)

let stop_timer c =
  c.persist <- false;
  if c.timer != Engine.none then begin
    Engine.cancel c.engine c.timer;
    c.timer <- Engine.none
  end

let arm_timer c =
  if c.timer == Engine.none then
    c.timer <- Engine.schedule_after c.engine c.rto c.timer_cb

(* The persist timer (4.4BSD's forced send): armed when data waits
   unsent, the window holding it back, and nothing is in flight to
   carry a window update back. *)
let arm_persist c =
  if c.timer == Engine.none then begin
    c.persist <- true;
    c.timer <- Engine.schedule_after c.engine persist_min c.timer_cb
  end

let wake_established c =
  let ws = c.est_waiters in
  c.est_waiters <- [];
  List.iter (fun w -> w ()) ws

let wake_readers c =
  let ws = c.rcv_waiters in
  c.rcv_waiters <- [];
  List.iter (fun w -> w ()) ws

let on_timeout c =
  match c.st with
  | Closed -> ()
  | Syn_sent | Syn_rcvd ->
    c.syn_tries <- c.syn_tries + 1;
    if c.syn_tries > 8 then begin
      (* The peer is gone: drop the connection, waking a connect and a
         lingering close. *)
      c.st <- Closed;
      sb_flush c.tbl c.snd;
      wake_established c;
      wake_readers c
    end
    else begin
      Stats.incr (Stats.at c.stats k_syn_retx);
      tx_ctrl c
        ~flags:(if c.st = Syn_sent then f_syn else f_syn lor f_ack)
        ~seq:0;
      c.rto <- Time.min max_rto (Time.scale c.rto 2);
      arm_timer c
    end
  | Established | Fin_wait ->
    if c.persist then begin
      c.persist <- false;
      if unsent c > 0 && in_flight c = 0 then begin
        let avail = usable c in
        if avail > 0 then begin
          (* The window is open, but too little for the silly-window
             rule and no update has come: send what it allows. *)
          let ck, inoff = locate c c.snd_nxt in
          send_new c ck ~inoff (Int.min avail (room ck ~inoff mss));
          arm_timer c
        end
        else begin
          (* Probe with one byte at snd_nxt, leaving snd_nxt where it
             is: a receiver with no room drops the byte and
             re-advertises its window; one with room takes it and
             acknowledges past snd_nxt. Neither the congestion window
             nor the RTO is touched. *)
          Stats.incr (Stats.at c.stats k_persist_probes);
          resend c ~seq:c.snd_nxt ~len:1;
          arm_persist c
        end
      end
    end
    else if in_flight c > 0 then begin
      (* Timeout: multiplicative decrease to one segment, and resend the
         first unacknowledged segment. *)
      c.ssthresh <- Int.max (in_flight c / 2) (2 * mss);
      c.cwnd <- mss;
      c.rtt_valid <- false;
      retransmit_head c;
      c.rto <- Time.min max_rto (Time.scale c.rto 2);
      arm_timer c
    end

(* Restart the retransmit timer at a fresh RTO: the pending event moves
   ([timer_cb] disarms [c.timer] as it fires, so an armed handle here is
   always pending). Like a cancel and a new event, the move takes a
   fresh sequence number. *)
let restart_timer c =
  c.persist <- false;
  if c.timer != Engine.none then
    Engine.reschedule c.engine c.timer ~at:(Time.add (Engine.now c.engine) c.rto)
  else arm_timer c

(* {1 Send machinery} *)

(* Push out whatever the windows allow, avoiding the silly window on
   the send side (RFC 1122 s4.2.3.4): a segment goes only if it is full
   or at least half the largest window the peer has offered. A segment
   is full at a whole MSS or where it must end ({!room}), at the end of
   a view chunk or of a copied run; a short final write thus goes, and
   the FIN after it. Data in flight runs the retransmission timer; data
   held back with nothing in flight runs the persist timer instead,
   which probes a zero window without spending sequence space and
   otherwise forces out what the window allows. *)
let rec pump c =
  if c.st = Established || c.st = Fin_wait then begin
    let sending = ref true in
    while !sending do
      sending := false;
      let avail = usable c in
      if avail > 0 then begin
        let ck, inoff = locate c c.snd_nxt in
        let room = room ck ~inoff mss in
        let n = Int.min avail room in
        if n > 0 && (n = room || 2 * n >= c.max_sndwnd) then begin
          send_new c ck ~inoff n;
          sending := true
        end
      end
    done;
    (* FIN once every byte is out, those of writers still waiting for
       send-buffer space included. *)
    (if
       c.app_closed && unsent c = 0
       && Queue.is_empty c.pending
       && c.fin_seq = None
     then begin
       c.fin_seq <- Some c.snd_nxt;
       c.snd_nxt <- c.snd_nxt + 1;
       tx_ctrl c ~flags:(f_fin lor f_ack) ~seq:(c.snd_nxt - 1)
     end);
    if in_flight c > 0 then begin
      if c.persist then stop_timer c;
      arm_timer c
    end
    else if unsent c > 0 then arm_persist c
  end

and admit_writers c =
  let progressing = ref true in
  while !progressing && not (Queue.is_empty c.pending) do
    let space = c.snd.sb_hiwat - unacked_data c in
    if space <= 0 then progressing := false
    else begin
      let p = Queue.peek c.pending in
      let n = Int.min space p.pw_len in
      if n > 0 then
        sb_push c.snd
          (if Payload.is_none p.pw_pl then
             copied_chunk c.tbl p.pw_data ~pos:p.pw_pos ~len:n
           else view_chunk c.tbl p.pw_pl ~off:p.pw_pos ~len:n);
      c.accepted <- c.accepted + n;
      p.pw_pos <- p.pw_pos + n;
      p.pw_len <- p.pw_len - n;
      if p.pw_len = 0 then begin
        ignore (Queue.pop c.pending);
        Payload.release p.pw_pl;
        p.pw_done ()
      end
    end
  done;
  pump c

(* {1 Input processing} *)

let set_peer_wnd c wnd =
  c.peer_wnd <- wnd;
  if wnd > c.max_sndwnd then c.max_sndwnd <- wnd

let process_ack c (g : seg) =
  if g.g_flags land f_ack <> 0 then begin
    if g.g_ack > c.snd_una then begin
      c.dup_acks <- 0;
      let advance = g.g_ack - c.snd_una in
      (* RTT sample once the timed segment is covered. *)
      if c.rtt_valid && g.g_ack >= c.rtt_seq then begin
        c.rtt_valid <- false;
        rtt_sample c (Time.to_sec_f (Time.diff (Engine.now c.engine) c.rtt_sent))
      end;
      (* Congestion window growth. *)
      (if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + Int.min advance mss
       else c.cwnd <- c.cwnd + Int.max 1 (mss * mss / c.cwnd));
      c.cwnd <- Int.min c.cwnd (8 * 1024 * 1024);
      (* The FIN occupies one virtual position past the data. *)
      sb_drop c.tbl c.snd (Int.min advance (unacked_data c));
      c.snd_una <- g.g_ack;
      (* Only an accepted persist probe byte is acknowledged past
         snd_nxt. *)
      if c.snd_nxt < c.snd_una then c.snd_nxt <- c.snd_una;
      if in_flight c > 0 then restart_timer c else stop_timer c;
      (match c.fin_seq with
       | Some fs when c.snd_una > fs && c.st = Fin_wait ->
         (* Our FIN is acknowledged; sending side is done. *)
         if c.fin_taken then c.st <- Closed
       | _ -> ());
      wake_readers c (* close() waits on rcv_waiters for the fin ack *)
    end
    else if g.g_ack = c.snd_una && in_flight c > 0 then begin
      (* Duplicate ACK: the third in a row triggers fast retransmit, and
         later ones for the same hole resend nothing until a new ACK
         restarts the count (4.3BSD's [++t_dupacks == tcprexmtthresh]). *)
      c.dup_acks <- c.dup_acks + 1;
      if c.dup_acks = 3 then begin
        Stats.incr (Stats.at c.stats k_fast_retx);
        (* Fast recovery: halve the window. *)
        c.ssthresh <- Int.max (in_flight c / 2) (2 * mss);
        c.cwnd <- c.ssthresh;
        c.rtt_valid <- false;
        retransmit_head c;
        restart_timer c
      end
    end;
    set_peer_wnd c g.g_wnd;
    admit_writers c
  end
  else set_peer_wnd c g.g_wnd

(* {2 Reassembly}

   Segments that arrive beyond rcv_nxt (after a loss) are held in
   sequence order as retained views — at most [max_ooo] of them. A
   segment starting where one is already held replaces it only if it is
   longer. *)

let max_ooo = 64

let ooo_insert c (g : seg) =
  let seq = g.g_seq in
  let held () = (seq, view_chunk c.tbl g.g_pl ~off:g.g_doff ~len:g.g_len) in
  let rec ins = function
    | [] -> [ held () ]
    | ((s, ck) as e) :: rest ->
      if seq < s then held () :: e :: rest
      else if seq = s then
        if g.g_len > ck.ck_len then begin
          free_chunk c.tbl ck;
          held () :: rest
        end
        else e :: rest
      else e :: ins rest
  in
  c.ooo <- ins c.ooo

(* Take up to [len] in-order bytes at [off] in [pl] into the receive
   buffer by reference, as space allows. Once the reader has closed they
   are acknowledged and dropped (BSD's SS_CANTRCVMORE). Returns the
   bytes taken. *)
let take c pl ~off ~len =
  let n = Int.min (rwnd c) len in
  if n > 0 then begin
    if not c.rcv_shut then sb_push c.rcv (view_chunk c.tbl pl ~off ~len:n);
    c.rcv_nxt <- c.rcv_nxt + n
  end;
  n

(* Deliver held segments while the first starts at or below rcv_nxt:
   one already covered is discarded, one straddling rcv_nxt is delivered
   from rcv_nxt on, and one the receive buffer takes only part of stays
   held, to be trimmed against the new rcv_nxt next time. *)
let rec drain_ooo c =
  match c.ooo with
  | (seq, ck) :: rest when seq <= c.rcv_nxt ->
    let skip = c.rcv_nxt - seq in
    let len = ck.ck_len - skip in
    if len <= 0 || take c ck.ck_pl ~off:(ck.ck_off + skip) ~len = len then begin
      c.ooo <- rest;
      free_chunk c.tbl ck;
      drain_ooo c
    end
  | _ -> ()

(* The reader is gone: drop what it never took (BSD's sorflush). *)
let rcv_flush c =
  c.rcv_shut <- true;
  sb_flush c.tbl c.rcv;
  List.iter (fun (_, ck) -> free_chunk c.tbl ck) c.ooo;
  c.ooo <- []

let check_fin c =
  match c.fin_at with
  | Some fs when c.rcv_nxt = fs && not c.fin_taken ->
    c.fin_taken <- true;
    c.rcv_nxt <- c.rcv_nxt + 1;
    (match c.fin_seq with
     | Some our_fs when c.snd_una > our_fs -> c.st <- Closed
     | _ -> ());
    wake_readers c
  | _ -> ()

(* An in-order segment was taken whole with nothing held beyond it:
   acknowledge every second one at once, and leave a lone one's ACK to
   the delayed-ACK timer or to whatever segment goes out first (RFC 1122
   s4.2.3.2). *)
let delay_ack c =
  if c.dack != Engine.none then send_pure_ack c
  else c.dack <- Engine.schedule_after c.engine delack c.dack_cb

let process_data c (g : seg) =
  let len = g.g_len in
  let fin = g.g_flags land f_fin <> 0 in
  (* Only a segment taken whole, in order and with no gap behind it may
     wait for its ACK. An out-of-order segment, one that fills a gap, a
     duplicate, one the window cuts and a FIN are acknowledged at once:
     the sender needs those ACKs to recover or to see the window. *)
  let delayable = ref false in
  (if len > 0 then begin
     Stats.incr c.c_segs_data_in;
     (* [skip] bytes at the front were already received: a segment that
        overlaps rcv_nxt is trimmed, not dropped. *)
     let skip = c.rcv_nxt - g.g_seq in
     if skip >= 0 then begin
       if skip < len then begin
         let gap = match c.ooo with [] -> false | _ :: _ -> true in
         let took = take c g.g_pl ~off:(g.g_doff + skip) ~len:(len - skip) in
         if took > 0 then begin
           drain_ooo c;
           wake_readers c
         end;
         delayable := took = len - skip && not gap
       end
     end
     else if -skip < c.rcv.sb_hiwat && List.length c.ooo < max_ooo then
       ooo_insert c g
   end);
  (if fin then begin
     let fin_pos = g.g_seq + len in
     (match c.fin_at with None -> c.fin_at <- Some fin_pos | Some _ -> ())
   end);
  check_fin c;
  if !delayable && not fin then delay_ack c
  else if len > 0 || fin then send_pure_ack c

let conn_input c (g : seg) =
  Stats.incr c.c_segs_in;
  match c.st with
  | Syn_sent ->
    if g.g_flags land f_syn <> 0 && g.g_flags land f_ack <> 0 then begin
      c.st <- (if c.app_closed then Fin_wait else Established);
      stop_timer c;
      c.rto <- base_rto;
      set_peer_wnd c g.g_wnd;
      send_pure_ack c;
      wake_established c
    end
  | Syn_rcvd ->
    if g.g_flags land f_ack <> 0 then begin
      (* The peer acknowledges our SYN|ACK, perhaps with data: the
         connection is established, and a stream already shut down goes
         straight to draining toward its FIN. *)
      c.st <- (if c.app_closed then Fin_wait else Established);
      stop_timer c;
      c.rto <- base_rto;
      set_peer_wnd c g.g_wnd;
      process_ack c g;
      process_data c g;
      wake_established c
    end
    else if g.g_flags land f_syn <> 0 then
      (* The peer's SYN again: it never saw our SYN|ACK. *)
      tx_ctrl c ~flags:(f_syn lor f_ack) ~seq:0
  | Established | Fin_wait ->
    if g.g_flags land f_syn <> 0 then
      (* A retransmitted SYN|ACK: the peer never saw the ACK that
         completed the handshake, and waits for it before sending. *)
      send_pure_ack c
    else begin
      process_ack c g;
      process_data c g
    end
  | Closed ->
    (* The peer retransmits its FIN when our acknowledgement of it was
       lost; acknowledge it again, or its close never completes. *)
    if c.fin_taken && g.g_flags land f_fin <> 0 then send_pure_ack c

(* {1 Construction and demux} *)

(* A socket buffer's size unless [connect ~rcvbuf] sizes the receive
   side. Every send buffer has it: it holds one whole write run of a
   graph edge (max_cluster 8 blocks of 8 KB), and no sender sizes it. *)
let default_buf = 64 * 1024

let make_conn ~tbl ~nif ~lport ~rif ~rport ~rcvbuf ~st =
  let net = Netif.net nif in
  let stats = Stats.create () in
  let c = {
    nif;
    net;
    engine = Netif.engine net;
    tbl;
    lport;
    rif;
    rport;
    st;
    snd = sb_create default_buf;
    snd_una = 0;
    snd_nxt = 0;
    accepted = 0;
    peer_wnd = 0;
    max_sndwnd = 0;
    app_closed = false;
    fin_seq = None;
    pending = Queue.create ();
    rcv = sb_create rcvbuf;
    rcv_nxt = 0;
    rcv_shut = false;
    ooo = [];
    fin_at = None;
    fin_taken = false;
    rcv_waiters = [];
    est_waiters = [];
    rcv_adv = rcvbuf;
    dack = Engine.none;
    dack_cb = (fun () -> ());
    cwnd = 2 * mss;
    ssthresh = 64 * 1024;
    srtt = -1.0;
    rttvar = 0.0;
    rtt_seq = 0;
    rtt_sent = Time.zero;
    rtt_valid = false;
    rto = base_rto;
    timer = Engine.none;
    timer_cb = (fun () -> ());
    persist = false;
    dup_acks = 0;
    syn_tries = 0;
    stats;
    c_segs_out = Stats.at stats k_segs_out;
    c_segs_in = Stats.at stats k_segs_in;
    c_segs_data_in = Stats.at stats k_segs_data_in;
    c_retx = Stats.at stats k_retx;
    c_delayed_acks = Stats.at stats k_delayed_acks;
  }
  in
  c.timer_cb <-
    (fun () ->
      c.timer <- Engine.none;
      on_timeout c);
  c.dack_cb <-
    (fun () ->
      c.dack <- Engine.none;
      send_pure_ack c);
  c

(* Connections a listener queues for [accept]; a SYN beyond them is
   dropped. *)
let backlog = 8

let demux tbl (frame : Netif.frame) g =
  let lif = frame.Netif.f_dst and lport = frame.Netif.f_port_dst in
  let rif = frame.Netif.f_src and rport = frame.Netif.f_port_src in
  if valid_port lport && valid_port rport then
    let key = conn_key lif lport rif rport in
    match Inttbl.find tbl.conns key with
    | c -> conn_input c g
    | exception Not_found -> (
      if g.g_flags land f_syn <> 0 && g.g_flags land f_ack = 0 then
        match Inttbl.find_opt tbl.listeners (listen_key lif lport) with
        | Some l when Queue.length l.l_queue < backlog ->
          let c =
            make_conn ~tbl ~nif:l.l_nif ~lport ~rif ~rport ~rcvbuf:default_buf
              ~st:Syn_rcvd
          in
          set_peer_wnd c g.g_wnd;
          Inttbl.replace tbl.conns key c;
          Queue.push c l.l_queue;
          tx_ctrl c ~flags:(f_syn lor f_ack) ~seq:0;
          arm_timer c;
          let ws = l.l_waiters in
          l.l_waiters <- [];
          List.iter (fun w -> w ()) ws
        | Some _ | None -> ())

let find_table net =
  List.find_map (function Tcp_tables tbl -> Some tbl | _ -> None) (Netif.exts net)

(* One demux table (and one shared receive closure) per net, created on
   first use. *)
let table_for nif =
  let net = Netif.net nif in
  let tbl =
    match find_table net with
    | Some tbl -> tbl
    | None ->
      let tbl =
        {
          listeners = Inttbl.create 8;
          conns = Inttbl.create 16;
          scratch =
            {
              g_flags = 0;
              g_seq = 0;
              g_ack = 0;
              g_wnd = 0;
              g_pl = Payload.none;
              g_doff = 0;
              g_len = 0;
            };
          rx_handler = (fun _ -> ());
          free_chunks = nil_chunk;
          views = 0;
        }
      in
      tbl.rx_handler <-
        (fun frame ->
          let g = tbl.scratch in
          if decode_into g frame then demux tbl frame g);
      Netif.add_ext net (Tcp_tables tbl);
      tbl
  in
  Netif.set_proto_rx nif ~proto:protocol_number tbl.rx_handler;
  tbl

(* {1 Public API} *)

let listen nif ~port () =
  check_port "listen" port;
  let tbl = table_for nif in
  let lkey = listen_key (Netif.id nif) port in
  if Inttbl.mem tbl.listeners lkey then
    invalid_arg (Printf.sprintf "Tcp.listen: port %d in use" port);
  let l =
    {
      l_nif = nif;
      l_port = port;
      l_queue = Queue.create ();
      l_waiters = [];
    }
  in
  Inttbl.replace tbl.listeners lkey l;
  l

let rec accept l =
  match Queue.take_opt l.l_queue with
  | Some c -> c
  | None ->
    Process.block "tcp-accept" (fun w -> l.l_waiters <- w :: l.l_waiters);
    accept l

(* Active open without blocking: send the SYN and return the connection
   in [Syn_sent]. *)
let connect_async nif ~port ~dst ~rcvbuf =
  check_port "connect" port;
  check_port "connect" dst.a_port;
  if dst.a_if < 1 || dst.a_if > Netif.max_ifaces then
    invalid_arg "Tcp.connect: no such interface id";
  let tbl = table_for nif in
  let key = conn_key (Netif.id nif) port dst.a_if dst.a_port in
  if Inttbl.mem tbl.conns key then
    invalid_arg "Tcp.connect: connection already exists";
  let c =
    make_conn ~tbl ~nif ~lport:port ~rif:dst.a_if ~rport:dst.a_port ~rcvbuf
      ~st:Syn_sent
  in
  Inttbl.replace tbl.conns key c;
  tx_ctrl c ~flags:f_syn ~seq:0;
  arm_timer c;
  c

let connect nif ~port ~dst ?(rcvbuf = default_buf) () =
  let c = connect_async nif ~port ~dst ~rcvbuf in
  let rec wait () =
    match c.st with
    | Established | Fin_wait -> ()
    | Closed -> failwith "Tcp.connect: connection timed out"
    | Syn_sent | Syn_rcvd ->
      Process.block "tcp-connect" (fun w -> c.est_waiters <- w :: c.est_waiters);
      wait ()
  in
  wait ();
  c

let check_sendable c what =
  (match c.st with
   | Established | Syn_sent | Syn_rcvd -> ()
   | Fin_wait | Closed ->
     invalid_arg (Printf.sprintf "Tcp.%s: closed connection" what));
  if c.app_closed then
    invalid_arg (Printf.sprintf "Tcp.%s: after close" what)

let send_async c data ~pos ~len k =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Tcp.send_async: bad range";
  check_sendable c "send_async";
  Queue.push
    { pw_data = data; pw_pl = Payload.none; pw_pos = pos; pw_len = len;
      pw_done = k }
    c.pending;
  admit_writers c

(* Zero-copy send: the stream references [pl] directly — segments carry
   views, nothing is copied into the send buffer, and the payload's
   reference count carries the bytes until the peer has acknowledged
   every one of them. Backpressure is identical to {!send_async}: [k]
   fires when the whole range has been accepted against the send-buffer
   budget. *)
let send_view c pl ~pos ~len k =
  if pos < 0 || len < 0 || pos + len > Payload.length pl then
    invalid_arg "Tcp.send_view: bad range";
  check_sendable c "send_view";
  Payload.retain pl;
  Queue.push
    { pw_data = Bytes.empty; pw_pl = pl; pw_pos = pos; pw_len = len;
      pw_done = k }
    c.pending;
  admit_writers c

let send c data ~pos ~len =
  if len > 0 then
    Process.block "tcp-send" (fun waker -> send_async c data ~pos ~len waker)

(* Window-update heuristic: tell the peer when the window it sees (what
   the last advertisement left, less what has arrived since) is closed
   or nearly so and has reopened meaningfully — by two segments, as
   4.4BSD's tcp_output requires before it announces a window, or by
   half a receive buffer smaller than four segments. The sender's
   silly-window rule sends on either amount, so an update always lets
   it go. *)
let maybe_window_update c =
  let enough = Int.min (2 * mss) (c.rcv.sb_hiwat / 2) in
  if c.rcv_adv - c.rcv_nxt < enough && rwnd c >= enough then send_pure_ack c

let rec recv c buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Tcp.recv: bad range";
  let avail = c.rcv.sb_cc in
  if avail > 0 then begin
    (* The one copy on the receive path: the copyout a read charges. *)
    let n = Int.min avail len in
    copy_out c.rcv.sb_head ~skip:0 buf pos n;
    sb_drop c.tbl c.rcv n;
    (* The space just freed may let held out-of-order data in; if it
       does, acknowledge it at once. *)
    let before = c.rcv_nxt in
    drain_ooo c;
    check_fin c;
    if c.rcv_nxt <> before then send_pure_ack c else maybe_window_update c;
    n
  end
  else if c.fin_taken then 0
  else if c.st = Closed then 0
  else begin
    Process.block "tcp-recv" (fun w -> c.rcv_waiters <- w :: c.rcv_waiters);
    recv c buf ~pos ~len
  end

(* Asynchronous half-close: mark the stream finished and let the pump
   emit the FIN once the queue drains. Never blocks, so it runs from
   interrupt context as well as under {!close}. *)
let shutdown c =
  match c.st with
  | Closed | Fin_wait -> ()
  | Syn_sent | Syn_rcvd ->
    (* Handshake still in flight (the whole stream may already sit in
       the send queue): mark the stream finished and let establishment
       drain it and emit the FIN. *)
    c.app_closed <- true
  | Established ->
    c.app_closed <- true;
    c.st <- Fin_wait;
    pump c

let close c =
  rcv_flush c;
  match c.st with
  | Closed -> ()
  | Fin_wait -> ()
  | Syn_sent ->
    c.st <- Closed;
    stop_timer c;
    sb_flush c.tbl c.snd
  | Syn_rcvd | Established ->
    (* A connection {!accept} handed out before the peer's ACK may
       already hold the whole stream: it lingers like an established
       one, and establishment drains it. *)
    shutdown c;
    (* Linger until our data and FIN are acknowledged. *)
    let rec wait () =
      match c.fin_seq with
      | Some fs when c.snd_una > fs -> ()
      | _ ->
        if c.st = Closed then ()
        else begin
          Process.block "tcp-close" (fun w ->
              c.rcv_waiters <- w :: c.rcv_waiters);
          wait ()
        end
    in
    wait ()

let remote_addr c = { a_if = c.rif; a_port = c.rport }

let retransmits c = Stats.value c.c_retx

let persist_probes c = Stats.value (Stats.at c.stats k_persist_probes)

let ooo_bytes c =
  List.fold_left
    (fun acc (seq, ck) ->
      acc + Int.max 0 (seq + ck.ck_len - Int.max seq c.rcv_nxt))
    0 c.ooo

let view_chunks net =
  match find_table net with Some tbl -> tbl.views | None -> 0

let cwnd c = c.cwnd

let srtt c = if c.srtt < 0.0 then None else Some c.srtt

let rto c = c.rto

let stats c = c.stats
