type counter = { mutable v : int }

type key = { k_name : string; k_slot : int }

(* Keys share one process-wide slot numbering; each registry caches the
   counter (or histogram) a key resolves to at that slot. *)
let nkeys = ref 0

let key name =
  let k = { k_name = name; k_slot = !nkeys } in
  incr nkeys;
  k

let unresolved = { v = 0 }

let unresolved_hist = Histogram.create ()

type t = {
  counters : (string, counter) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  mutable cslots : counter array;
  mutable hslots : Histogram.t array;
}

let create () =
  {
    counters = Hashtbl.create 64;
    histograms = Hashtbl.create 16;
    cslots = [||];
    hslots = [||];
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { v = 0 } in
    Hashtbl.add t.counters name c;
    c

let incr c = c.v <- c.v + 1

let add c n =
  if n < 0 then invalid_arg "Stats.add: negative increment";
  c.v <- c.v + n

let value c = c.v

let get t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.v | None -> 0

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add t.histograms name h;
    h

(* Slots for every key declared so far, [fill] where not yet resolved. *)
let grown a fill =
  Array.init !nkeys (fun i -> if i < Array.length a then a.(i) else fill)

let at t k =
  if k.k_slot >= Array.length t.cslots then t.cslots <- grown t.cslots unresolved;
  let c = t.cslots.(k.k_slot) in
  if c != unresolved then c
  else begin
    let c = counter t k.k_name in
    t.cslots.(k.k_slot) <- c;
    c
  end

let hist t k =
  if k.k_slot >= Array.length t.hslots then
    t.hslots <- grown t.hslots unresolved_hist;
  let h = t.hslots.(k.k_slot) in
  if h != unresolved_hist then h
  else begin
    let h = histogram t k.k_name in
    t.hslots.(k.k_slot) <- h;
    h
  end

let to_list t =
  Hashtbl.fold (fun name c acc -> (name, c.v) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp fmt t =
  List.iter (fun (name, v) -> Format.fprintf fmt "%-40s %d@." name v) (to_list t)
