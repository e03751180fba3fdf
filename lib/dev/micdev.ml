open Kpath_sim

type t = {
  md_name : string;
  rate : float;
  engine : Engine.t;
  intr : Blkdev.intr;
  mutable consumer : (bytes -> unit) option;
  mutable produced : int;
  mutable running : bool;
  mutable armed : bool;
}

let sample_pattern ~off ~len =
  Bytes.init len (fun i -> Char.chr (((off + i) * 37 + 11) land 0xff))

(* Bytes the hardware delivers per interrupt. *)
let chunk = 1024

let create ~name ~rate ~engine ~intr () =
  if not (rate > 0.0) then invalid_arg "Micdev.create: rate <= 0";
  {
    md_name = name;
    rate;
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
    let span = Time.span_of_bytes ~bytes_per_sec:t.rate chunk in
    ignore
      (Engine.schedule_after t.engine span (fun () ->
           t.armed <- false;
           if t.running then begin
             let data = sample_pattern ~off:t.produced ~len:chunk in
             t.produced <- t.produced + chunk;
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
