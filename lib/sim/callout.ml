type t = {
  engine : Engine.t;
  tick : Time.span;
  mutable dispatched : int;
}

let create ?(tick = Time.ms 1) engine =
  if Time.(tick <= Time.zero) then invalid_arg "Callout.create: tick <= 0";
  { engine; tick; dispatched = 0 }

let wrap t fn () =
  t.dispatched <- t.dispatched + 1;
  fn ()

(* Next tick boundary strictly after [now] plus (ticks - 1) further ticks. *)
let tick_boundary t ~ticks =
  let now = Time.to_ns (Engine.now t.engine) in
  let period = Time.to_ns t.tick in
  let next = ((now / period) + 1) * period in
  Time.ns (next + ((ticks - 1) * period))

let timeout t ~ticks fn =
  if ticks < 1 then invalid_arg "Callout.timeout: ticks < 1";
  Engine.schedule t.engine ~at:(tick_boundary t ~ticks) (wrap t fn)

let timeout_span t d fn =
  let ticks = Stdlib.max 1 ((Time.to_ns d + Time.to_ns t.tick - 1) / Time.to_ns t.tick) in
  timeout t ~ticks fn

let schedule_head t fn =
  Engine.schedule t.engine ~at:(Engine.now t.engine) (wrap t fn)

let untimeout t h = Engine.cancel t.engine h

let dispatched t = t.dispatched
