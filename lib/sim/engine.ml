(* The event queue behind the simulation: a hierarchical timing wheel
   (Varghese & Lauck) with three levels of 256 slots keyed on the
   callout tick, an overflow heap for events beyond the 2^24-tick
   horizon, and a small "near" heap that totally orders the events of
   the current tick by (time, seq).

   Event records live in a freelist pool and handles are immediate
   integers packing (pool index, generation), so steady-state
   scheduling allocates nothing on the OCaml heap and a stale handle
   can never reach a recycled record. *)

type handle = int

type backend = [ `Wheel ]

(* Handle layout: low [idx_bits] bits index the pool; the bits above
   carry the record's generation (wrapping at [gen_mask]). *)
let idx_bits = 20

let idx_mask = (1 lsl idx_bits) - 1

let max_pool = idx_mask + 1

let gen_mask = (1 lsl 42) - 1

let nil = -1

(* Record states. A freed record keeps its terminal state (fired or
   cancelled) until the slot is reused, so status queries on recent
   handles stay exact. *)
let st_pending = 0

let st_cancelled = 1

let st_fired = 2

type hrec = {
  h_idx : int;
  mutable h_gen : int;
  mutable h_time : Time.t;
  mutable h_seq : int;
  mutable h_fn : unit -> unit;
  mutable h_state : int;
  mutable h_next : int; (* freelist or wheel-slot chain; [nil] ends it *)
}

let dummy_fn () = ()

(* Wheel geometry: 256 slots per level, three levels, so ticks up to
   2^24 ahead live somewhere in the wheel and anything farther spills
   to the overflow heap. With a 1 ms tick the horizon is ~4.7 hours. *)
let slot_bits = 8

let slots = 1 lsl slot_bits

let slot_mask = slots - 1

let horizon = 1 lsl (3 * slot_bits)

type wheel = {
  w_gran : int; (* ns per tick *)
  mutable w_tick : int; (* ticks <= w_tick have been dumped *)
  l0 : int array; (* chain heads per slot; pool indices *)
  l1 : int array;
  l2 : int array;
  mutable n0 : int; (* entries chained per level: lets [advance] skip *)
  mutable n1 : int; (* empty levels whole-span instead of slot by slot *)
  mutable n2 : int;
  near : int Heap.t; (* current-instant events, (time, seq) order *)
  over : int Heap.t; (* beyond the horizon *)
}

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable live : int; (* pending minus cancelled, for [pending] *)
  mutable fired_count : int;
  pool : hrec array ref; (* in a ref so heap comparators can see growth *)
  mutable pool_len : int;
  mutable free_head : int;
  mutable free_n : int;
  w : wheel;
}

exception Stopped

let stop () = raise Stopped

let create ?backend:(`Wheel : backend = `Wheel) ?(tick = Time.ms 1) () =
  if Time.(tick <= Time.zero) then invalid_arg "Engine.create: tick <= 0";
  let pool = ref [||] in
  let cmp i j =
    let a = !pool.(i) and b = !pool.(j) in
    let c = Time.compare a.h_time b.h_time in
    if c <> 0 then c else Int.compare a.h_seq b.h_seq
  in
  let w =
    {
      w_gran = Time.to_ns tick;
      w_tick = 0;
      l0 = Array.make slots nil;
      l1 = Array.make slots nil;
      l2 = Array.make slots nil;
      n0 = 0;
      n1 = 0;
      n2 = 0;
      near = Heap.create ~cmp;
      over = Heap.create ~cmp;
    }
  in
  {
    clock = Time.zero;
    next_seq = 0;
    live = 0;
    fired_count = 0;
    pool;
    pool_len = 0;
    free_head = nil;
    free_n = 0;
    w;
  }

let now t = t.clock

let pending t = t.live

let events_fired t = t.fired_count

let pool_size t = t.pool_len

let pool_free t = t.free_n

(* {1 Pool} *)

let alloc t ~time ~seq ~fn =
  if t.free_head >= 0 then begin
    let r = !(t.pool).(t.free_head) in
    t.free_head <- r.h_next;
    t.free_n <- t.free_n - 1;
    r.h_gen <- (r.h_gen + 1) land gen_mask;
    r.h_time <- time;
    r.h_seq <- seq;
    r.h_fn <- fn;
    r.h_state <- st_pending;
    r.h_next <- nil;
    r
  end
  else begin
    let i = t.pool_len in
    if i >= max_pool then
      failwith "Engine: event pool exhausted (2^20 concurrent events)";
    let r =
      {
        h_idx = i;
        h_gen = 0;
        h_time = time;
        h_seq = seq;
        h_fn = fn;
        h_state = st_pending;
        h_next = nil;
      }
    in
    let cap = Array.length !(t.pool) in
    if i >= cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let np = Array.make ncap r in
      Array.blit !(t.pool) 0 np 0 cap;
      t.pool := np
    end;
    !(t.pool).(i) <- r;
    t.pool_len <- i + 1;
    r
  end

(* Return a record to the freelist. The generation is bumped at reuse,
   not here, so [fired]/[cancelled] stay exact until the slot cycles. *)
let free t (r : hrec) =
  r.h_fn <- dummy_fn;
  r.h_next <- t.free_head;
  t.free_head <- r.h_idx;
  t.free_n <- t.free_n + 1

let pack (r : hrec) = (r.h_gen lsl idx_bits) lor r.h_idx

(* {1 Wheel} *)

let tick_of w time = Time.to_ns time / w.w_gran

let push_slot (arr : int array) s (r : hrec) =
  r.h_next <- arr.(s);
  arr.(s) <- r.h_idx

let wheel_insert w (r : hrec) =
  let te = tick_of w r.h_time in
  let dt = te - w.w_tick in
  if dt <= 0 then Heap.push w.near r.h_idx
  else if dt < slots then begin
    push_slot w.l0 (te land slot_mask) r;
    w.n0 <- w.n0 + 1
  end
  else if dt < slots * slots then begin
    push_slot w.l1 ((te lsr slot_bits) land slot_mask) r;
    w.n1 <- w.n1 + 1
  end
  else if dt < horizon then begin
    push_slot w.l2 ((te lsr (2 * slot_bits)) land slot_mask) r;
    w.n2 <- w.n2 + 1
  end
  else Heap.push w.over r.h_idx

(* Re-file every entry of a slot: cancelled tombstones are collected,
   the rest cascade to a lower level or into the near heap. *)
let dump_slot t w level (arr : int array) s =
  let i = ref arr.(s) in
  arr.(s) <- nil;
  while !i >= 0 do
    let r = !(t.pool).(!i) in
    let next = r.h_next in
    r.h_next <- nil;
    (match level with
     | 0 -> w.n0 <- w.n0 - 1
     | 1 -> w.n1 <- w.n1 - 1
     | _ -> w.n2 <- w.n2 - 1);
    if r.h_state = st_cancelled then free t r else wheel_insert w r;
    i := next
  done

(* Move overflow entries now within the horizon into the wheel. *)
let pull_overflow t w =
  let continue = ref true in
  while !continue do
    if
      (not (Heap.is_empty w.over))
      && tick_of w !(t.pool).(Heap.peek_exn w.over).h_time - w.w_tick < horizon
    then begin
      let r = !(t.pool).(Heap.pop_exn w.over) in
      if r.h_state = st_cancelled then free t r else wheel_insert w r
    end
    else continue := false
  done

(* Cross a level-0 cascade boundary: cascade the higher levels' slots
   whose windows open at [boundary] (and refill from overflow when a
   whole horizon has elapsed). *)
let cross t w boundary =
  w.w_tick <- boundary;
  if boundary land (horizon - 1) = 0 then pull_overflow t w;
  if boundary land ((slots * slots) - 1) = 0 then
    dump_slot t w 2 w.l2 ((boundary lsr (2 * slot_bits)) land slot_mask);
  dump_slot t w 1 w.l1 ((boundary lsr slot_bits) land slot_mask);
  (* The boundary tick itself wraps to level-0 slot 0, which the
     pre-boundary scan never reaches: dump it here (after the cascades,
     which can only add [boundary]-tick events to the near heap). *)
  dump_slot t w 0 w.l0 (boundary land slot_mask)

(* The near heap is empty: advance [w_tick] until an event lands in it
   or the wheel and overflow are both drained. Empty levels are skipped
   whole-span (straight to the boundary that could populate them), so a
   sparse far future costs O(occupied slots), not O(elapsed ticks). *)
let rec advance t w =
  if w.n0 = 0 && w.n1 = 0 && w.n2 = 0 then begin
    if not (Heap.is_empty w.over) then begin
      (* Nothing before the earliest overflow entry: jump straight to
         its tick and pull everything that fits the horizon. *)
      let te = tick_of w !(t.pool).(Heap.peek_exn w.over).h_time in
      if te > w.w_tick then w.w_tick <- te;
      pull_overflow t w;
      if Heap.is_empty w.near then advance t w
    end
  end
  else begin
    (if w.n0 > 0 then begin
       (* Scan level 0 up to the next cascade boundary. *)
       let boundary = ((w.w_tick lsr slot_bits) + 1) lsl slot_bits in
       let tk = ref (w.w_tick + 1) in
       let found = ref false in
       while (not !found) && !tk < boundary do
         if w.l0.(!tk land slot_mask) >= 0 then found := true else incr tk
       done;
       if !found then begin
         w.w_tick <- !tk;
         dump_slot t w 0 w.l0 (!tk land slot_mask)
       end
       else cross t w boundary
     end
     else if w.n1 > 0 then
       cross t w (((w.w_tick lsr slot_bits) + 1) lsl slot_bits)
     else
       (* Only level 2 is occupied: no event can land before the next
          level-1 window opens. *)
       cross t w
         (((w.w_tick lsr (2 * slot_bits)) + 1) lsl (2 * slot_bits)));
    if Heap.is_empty w.near then advance t w
  end

(* {1 Scheduling} *)

let schedule t ~at fn =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule: time in the past";
  let r = alloc t ~time:at ~seq:t.next_seq ~fn in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  wheel_insert t.w r;
  pack r

let schedule_after t d fn = schedule t ~at:(Time.add t.clock d) fn

let deref t h =
  let i = h land idx_mask in
  if i < t.pool_len then begin
    let r = !(t.pool).(i) in
    if r.h_gen = h lsr idx_bits then Some r else None
  end
  else None

let cancel t h =
  match deref t h with
  | Some r when r.h_state = st_pending ->
    (* Lazy removal: the tombstone is collected when its slot drains. *)
    r.h_state <- st_cancelled;
    r.h_fn <- dummy_fn;
    t.live <- t.live - 1
  | Some _ | None -> ()

let cancelled t h =
  match deref t h with Some r -> r.h_state = st_cancelled | None -> false

let fired t h =
  match deref t h with Some r -> r.h_state = st_fired | None -> false

(* {1 Firing} *)

(* Pop the next non-cancelled event, discarding tombstones. Returns the
   record's pool index, or [nil] when drained — an int, not an option,
   so the dispatch loop allocates nothing. *)
let rec next_live t =
  let w = t.w in
  if not (Heap.is_empty w.near) then begin
    let i = Heap.pop_exn w.near in
    let r = !(t.pool).(i) in
    if r.h_state = st_cancelled then begin
      free t r;
      next_live t
    end
    else i
  end
  else if w.n0 = 0 && w.n1 = 0 && w.n2 = 0 && Heap.is_empty w.over then nil
  else begin
    advance t w;
    next_live t
  end

let fire t (r : hrec) =
  t.clock <- r.h_time;
  r.h_state <- st_fired;
  t.live <- t.live - 1;
  t.fired_count <- t.fired_count + 1;
  let fn = r.h_fn in
  free t r;
  fn ()

let step t =
  let i = next_live t in
  if i < 0 then false
  else begin
    fire t !(t.pool).(i);
    true
  end

let run ?until t =
  let continue = ref true in
  while !continue do
    let i = next_live t in
    if i < 0 then continue := false
    else begin
      let r = !(t.pool).(i) in
      match until with
      | Some limit when Time.(r.h_time > limit) ->
        (* Re-queue: the event is beyond the horizon. *)
        wheel_insert t.w r;
        t.clock <- limit;
        continue := false
      | _ -> fire t r
    end
  done
