(* The event queue behind the simulation: one binary min-heap of event
   slots ordered by (time, seq). The keys live in int arrays indexed by
   heap position, beside the slot each entry belongs to, and every slot
   records its current heap position, so a pending event can be removed
   ([cancel]) or moved ([reschedule]) where it stands: the heap holds
   live events only.

   Slots live in a freelist pool and handles are immediate integers
   packing (slot index, generation), so steady-state scheduling
   allocates nothing on the OCaml heap and a stale handle can never
   reach a recycled slot. *)

type handle = int

type backend = [ `Wheel ]

(* Handle layout: low [idx_bits] bits index the pool; the bits above
   carry the slot's generation (wrapping at [gen_mask]). *)
let idx_bits = 20

let idx_mask = (1 lsl idx_bits) - 1

let max_pool = idx_mask + 1

let gen_mask = (1 lsl 42) - 1

(* Its generation field is above [gen_mask], so no slot ever matches. *)
let none = -1

(* A pending slot's [pos] is its heap index. A freed slot keeps how its
   event ended until the slot is reused, so status queries on recent
   handles stay exact. *)
let st_cancelled = -1

let st_fired = -2

let dummy_fn () = ()

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable fired_count : int;
  (* The heap, by position: entry [i] is slot [h_slot.(i)]'s event, due
     at [h_time.(i)] ns with sequence number [h_seq.(i)]. *)
  mutable size : int;
  mutable h_time : int array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  (* The pool, by slot. *)
  mutable pool_len : int;
  mutable pos : int array;
  mutable gen : int array;
  mutable fns : (unit -> unit) array;
  mutable free : int array; (* stack of free slots *)
  mutable free_n : int;
}

exception Stopped

let stop () = raise Stopped

(* [?backend] and [?tick] are accepted and ignored (see the mli). *)
let create ?backend:(_ : backend option) ?tick:(_ : Time.span option) () =
  {
    clock = Time.zero;
    next_seq = 0;
    fired_count = 0;
    size = 0;
    h_time = [||];
    h_seq = [||];
    h_slot = [||];
    pool_len = 0;
    pos = [||];
    gen = [||];
    fns = [||];
    free = [||];
    free_n = 0;
  }

let now t = t.clock

let pending t = t.size

let events_fired t = t.fired_count

let pool_size t = t.pool_len

let pool_free t = t.free_n

(* {1 Pool} *)

(* Every array holds at most one entry per slot, so all grow together. *)
let grow t =
  let cap = Array.length t.pos in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let widen a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.h_time <- widen t.h_time 0;
  t.h_seq <- widen t.h_seq 0;
  t.h_slot <- widen t.h_slot 0;
  t.pos <- widen t.pos st_fired;
  t.gen <- widen t.gen 0;
  t.fns <- widen t.fns dummy_fn;
  t.free <- widen t.free 0

(* A slot for a new event. The generation is bumped at reuse, not at
   free, so [fired]/[cancelled] stay exact until the slot cycles. *)
let alloc t =
  if t.free_n > 0 then begin
    t.free_n <- t.free_n - 1;
    let s = t.free.(t.free_n) in
    t.gen.(s) <- (t.gen.(s) + 1) land gen_mask;
    s
  end
  else begin
    let s = t.pool_len in
    if s >= max_pool then
      failwith "Engine: event pool exhausted (2^20 concurrent events)";
    if s = Array.length t.pos then grow t;
    t.pool_len <- s + 1;
    s
  end

let free t s ~state =
  t.pos.(s) <- state;
  t.fns.(s) <- dummy_fn;
  t.free.(t.free_n) <- s;
  t.free_n <- t.free_n + 1

let pack t s = (t.gen.(s) lsl idx_bits) lor s

(* The pending slot [h] names, or -1. *)
let live_slot t h =
  let s = h land idx_mask in
  if s < t.pool_len && t.gen.(s) = h lsr idx_bits && t.pos.(s) >= 0 then s
  else -1

(* {1 Heap} *)

(* Does the key (tm, sq) order before heap entry [j]? Sequence numbers
   are unique, so no two keys tie. *)
let before t tm sq j =
  let tj = t.h_time.(j) in
  tm < tj || (tm = tj && sq < t.h_seq.(j))

let set t i tm sq s =
  t.h_time.(i) <- tm;
  t.h_seq.(i) <- sq;
  t.h_slot.(i) <- s;
  t.pos.(s) <- i

let move t ~src ~dst = set t dst t.h_time.(src) t.h_seq.(src) t.h_slot.(src)

(* Settle the entry (tm, sq, s) from the hole at [i]: parents it orders
   before move down into the hole. *)
let rec sift_up t i tm sq s =
  let p = (i - 1) / 2 in
  if i > 0 && before t tm sq p then begin
    move t ~src:p ~dst:i;
    sift_up t p tm sq s
  end
  else set t i tm sq s

(* Settle (tm, sq, s) from the hole at [i]: the earlier child moves up
   into the hole while it orders before the entry. *)
let rec sift_down t i tm sq s =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i tm sq s
  else begin
    let r = l + 1 in
    let c =
      if r < t.size && before t t.h_time.(r) t.h_seq.(r) l then r else l
    in
    if before t tm sq c then set t i tm sq s
    else begin
      move t ~src:c ~dst:i;
      sift_down t c tm sq s
    end
  end

(* Give heap entry [i] the key (tm, sq): it rises if it now orders before
   its parent, and otherwise sinks as far as it must. *)
let settle t i tm sq s =
  if i > 0 && before t tm sq ((i - 1) / 2) then sift_up t i tm sq s
  else sift_down t i tm sq s

(* Take entry [i] out of the heap: the last entry fills the hole. *)
let remove_at t i =
  let n = t.size - 1 in
  t.size <- n;
  if i < n then settle t i t.h_time.(n) t.h_seq.(n) t.h_slot.(n)

(* {1 Scheduling} *)

let schedule t ~at fn =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule: time in the past";
  let s = alloc t in
  t.fns.(s) <- fn;
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i (Time.to_ns at) sq s;
  pack t s

let schedule_after t d fn = schedule t ~at:(Time.add t.clock d) fn

let cancel t h =
  let s = live_slot t h in
  if s >= 0 then begin
    remove_at t t.pos.(s);
    free t s ~state:st_cancelled
  end

(* A fresh sequence number, exactly as [cancel] then [schedule] would
   take: the moved event fires after every event already due at [at]. *)
let reschedule t h ~at =
  if Time.(at < t.clock) then
    invalid_arg "Engine.reschedule: time in the past";
  let s = live_slot t h in
  if s < 0 then invalid_arg "Engine.reschedule: event not pending";
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  settle t t.pos.(s) (Time.to_ns at) sq s

let status t h =
  let s = h land idx_mask in
  if s < t.pool_len && t.gen.(s) = h lsr idx_bits then t.pos.(s) else 0

let cancelled t h = status t h = st_cancelled

let fired t h = status t h = st_fired

(* {1 Firing} *)

(* Pop the earliest event, advance the clock to it and run it. Its slot
   is freed first, so the callback may reuse it. *)
let fire t =
  let s = t.h_slot.(0) in
  t.clock <- Time.ns t.h_time.(0);
  remove_at t 0;
  t.fired_count <- t.fired_count + 1;
  let fn = t.fns.(s) in
  free t s ~state:st_fired;
  fn ()

let step t =
  if t.size = 0 then false
  else begin
    fire t;
    true
  end

let run ?until t =
  match until with
  | None -> while t.size > 0 do fire t done
  | Some limit ->
    if Time.(limit < t.clock) then
      invalid_arg "Engine.run: horizon in the past";
    let limit_ns = Time.to_ns limit in
    let continue = ref true in
    while !continue do
      if t.size = 0 then continue := false
      else if t.h_time.(0) > limit_ns then begin
        t.clock <- limit;
        continue := false
      end
      else fire t
    done
