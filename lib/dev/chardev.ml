open Kpath_sim

type pending = {
  p_data : bytes;
  mutable p_off : int;
  mutable p_len : int;
  p_done : unit -> unit;
}

type t = {
  cd_name : string;
  drain_rate : float;
  fifo_capacity : int;
  engine : Engine.t;
  intr : Blkdev.intr;
  fifo : Buffer.t; (* buffered-but-unplayed bytes *)
  pending : pending Queue.t;
  capture : Buffer.t;
  mutable consumed : int;
  mutable underruns : int;
  mutable stream_open : bool;
  mutable draining : bool;
}

let name t = t.cd_name

let consumed t = t.consumed

let underruns t = t.underruns

let captured t = Buffer.contents t.capture

let close_stream t = t.stream_open <- false

(* Consumed bytes kept for integrity checks. *)
let capture_limit = 256 * 1024

(* The hardware drains its FIFO in 1 KB ticks on every device: an
   underrun is counted per tick, so one quantum keeps the media
   experiments' glitch counts comparable. *)
let drain_quantum = 1024

let create ~name ~drain_rate ~fifo_capacity ~engine ~intr () =
  if not (drain_rate > 0.0) then
    invalid_arg "Chardev.create: drain_rate <= 0";
  if fifo_capacity <= 0 then invalid_arg "Chardev.create: fifo_capacity <= 0";
  {
    cd_name = name;
    drain_rate;
    fifo_capacity;
    engine;
    intr;
    fifo = Buffer.create fifo_capacity;
    pending = Queue.create ();
    capture = Buffer.create 4096;
    consumed = 0;
    underruns = 0;
    stream_open = false;
    draining = false;
  }

(* Move queued writer data into whatever FIFO space is free; fire
   completions for writers fully admitted. *)
let admit t =
  let progressing = ref true in
  while !progressing && not (Queue.is_empty t.pending) do
    let space = t.fifo_capacity - Buffer.length t.fifo in
    if space = 0 then progressing := false
    else begin
      let p = Queue.peek t.pending in
      let n = min space p.p_len in
      Buffer.add_subbytes t.fifo p.p_data p.p_off n;
      p.p_off <- p.p_off + n;
      p.p_len <- p.p_len - n;
      if p.p_len = 0 then begin
        ignore (Queue.pop t.pending);
        (* Acceptance completion: a tiny bit of driver work. *)
        t.intr ~service:(Time.us 5) p.p_done
      end
    end
  done

let rec drain_tick t =
  let level = Buffer.length t.fifo in
  if level = 0 && Queue.is_empty t.pending then begin
    if t.stream_open then t.underruns <- t.underruns + 1;
    t.draining <- false
  end
  else begin
    let n = min drain_quantum (max level 1) in
    let n = min n level in
    (if n > 0 then begin
       let all = Buffer.contents t.fifo in
       let keep = String.sub all n (String.length all - n) in
       let room = capture_limit - Buffer.length t.capture in
       if room > 0 then Buffer.add_string t.capture (String.sub all 0 (min n room));
       Buffer.clear t.fifo;
       Buffer.add_string t.fifo keep;
       t.consumed <- t.consumed + n
     end
     else if t.stream_open then t.underruns <- t.underruns + 1);
    admit t;
    let span = Time.span_of_bytes ~bytes_per_sec:t.drain_rate (max n 1) in
    ignore (Engine.schedule_after t.engine span (fun () -> drain_tick t))
  end

let start_drain t =
  if not t.draining then begin
    t.draining <- true;
    t.stream_open <- true;
    let span =
      Time.span_of_bytes ~bytes_per_sec:t.drain_rate
        (min drain_quantum (max 1 (Buffer.length t.fifo)))
    in
    ignore (Engine.schedule_after t.engine span (fun () -> drain_tick t))
  end

let write_async t data off len k =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Chardev.write_async: bad range";
  Queue.push { p_data = data; p_off = off; p_len = len; p_done = k } t.pending;
  admit t;
  start_drain t

let try_write t data off len =
  if not (Queue.is_empty t.pending) then
    invalid_arg "Chardev.try_write: writers queued";
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Chardev.try_write: bad range";
  let space = t.fifo_capacity - Buffer.length t.fifo in
  let n = min space len in
  if n > 0 then begin
    Buffer.add_subbytes t.fifo data off n;
    start_drain t
  end;
  n
