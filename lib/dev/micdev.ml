open Kpath_sim

type t = {
  md_name : string;
  rate : float;
  chunk : int;
  engine : Engine.t;
  intr : Blkdev.intr;
  mutable consumer : (bytes -> unit) option;
  mutable produced : int;
  mutable running : bool;
  mutable armed : bool;
}

let sample_pattern ~off ~len =
  Bytes.init len (fun i -> Char.chr (((off + i) * 37 + 11) land 0xff))

let create ~name ~rate ?(chunk = 1024) ~engine ~intr () =
  if not (rate > 0.0) then invalid_arg "Micdev.create: rate <= 0";
  if chunk <= 0 then invalid_arg "Micdev.create: chunk <= 0";
  {
    md_name = name;
    rate;
    chunk;
    engine;
    intr;
    consumer = None;
    produced = 0;
    running = true;
    armed = false;
  }

let rec arm t =
  if t.running && not t.armed then begin
    t.armed <- true;
    let span = Time.span_of_bytes ~bytes_per_sec:t.rate t.chunk in
    ignore
      (Engine.schedule_after t.engine span (fun () ->
           t.armed <- false;
           if t.running then begin
             let data = sample_pattern ~off:t.produced ~len:t.chunk in
             t.produced <- t.produced + t.chunk;
             (* Chunk-arrival interrupt. *)
             t.intr ~service:(Time.us 40) (fun () ->
                 match t.consumer with Some fn -> fn data | None -> ());
             if Option.is_some t.consumer then arm t
           end))
  end

let set_consumer t fn =
  t.consumer <- fn;
  if Option.is_some fn then arm t

let stop t =
  t.running <- false;
  t.consumer <- None
