open Kpath_sim

type t = {
  fb_name : string;
  frame_bytes : int;
  interval : Time.span;
  engine : Engine.t;
  mutable seq : int;
  mutable waiters : (seq:int -> bytes -> unit) list;
  mutable running : bool;
  mutable armed : bool;
}

let frame_pattern ~seq ~size =
  let b = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.set b i (Char.chr ((seq * 131 + i * 7) land 0xff))
  done;
  b

let rec arm t =
  if t.running && not t.armed then begin
    t.armed <- true;
    ignore
      (Engine.schedule_after t.engine t.interval (fun () ->
           t.armed <- false;
           if t.running then begin
             let seq = t.seq in
             t.seq <- seq + 1;
             let frame = frame_pattern ~seq ~size:t.frame_bytes in
             let waiters = List.rev t.waiters in
             t.waiters <- [];
             List.iter (fun k -> k ~seq frame) waiters;
             (match (t.waiters, waiters) with
              | [], [] -> ()
              | _ -> arm t)
           end))
  end

let create ~name ~frame_bytes ~frames_per_sec ~engine () =
  if frame_bytes <= 0 then invalid_arg "Framebuffer.create: frame_bytes <= 0";
  if not (frames_per_sec > 0.0) then
    invalid_arg "Framebuffer.create: rate <= 0";
  {
    fb_name = name;
    frame_bytes;
    interval = Time.of_sec_f (1.0 /. frames_per_sec);
    engine;
    seq = 0;
    waiters = [];
    running = true;
    armed = false;
  }

let next_frame t k =
  if not t.running then invalid_arg (t.fb_name ^ ": stopped");
  t.waiters <- k :: t.waiters;
  arm t

let stop t =
  t.running <- false;
  t.waiters <- []
