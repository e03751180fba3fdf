(* Spans recorded around the benchmark's calls into each layer.

   A host span times simulator code on the host clock (seconds); a sim
   span times a system call on the simulated clock of the machine that
   made it. Spans are kept in memory: per-name totals for every
   iteration feed the per-layer metrics, and the full span list of the
   first measured iteration is written out at the end. With tracing off
   every entry point is a single branch. *)

let on = ref false

(* Host time is this process's CPU time (user + system): the simulator
   is one single-threaded process, and CPU time leaves out the time
   other processes on the host take from it. *)
let host_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type t = {
  id : int;
  parent : int;  (** 0 at top level *)
  name : string;
  sim : bool;  (** simulated seconds rather than host seconds *)
  t0 : float;
  t1 : float;
}

(* Spans of iteration [keep_iter] (the first measured one) are kept. *)
let iter = ref 0
let keep_iter = 1
let kept : t list ref = ref []
let last_id = ref 0
let stack : int list ref = ref []

(* name -> (count, total seconds) for the current iteration. *)
let totals : (string, int ref * float ref) Hashtbl.t = Hashtbl.create 32

let start_iteration k =
  iter := k;
  Hashtbl.reset totals

let fresh_id () =
  incr last_id;
  !last_id

let parent () = match !stack with p :: _ -> p | [] -> 0

let add ~id ~parent name ~sim t0 t1 =
  (match Hashtbl.find_opt totals name with
   | Some (n, s) ->
     incr n;
     s := !s +. (t1 -. t0)
   | None -> Hashtbl.add totals name (ref 1, ref (t1 -. t0)));
  if !iter = keep_iter then kept := { id; parent; name; sim; t0; t1 } :: !kept

(* A host span whose endpoints were taken elsewhere. *)
let record name t0 t1 =
  if !on then add ~id:(fresh_id ()) ~parent:(parent ()) name ~sim:false t0 t1

(* [host name f] runs [f] inside a host span; host spans opened inside
   it name it as their parent. *)
let host name f =
  if not !on then f ()
  else begin
    let id = fresh_id () and parent = parent () in
    let t0 = host_now () in
    stack := id :: !stack;
    let r = f () in
    stack := List.tl !stack;
    add ~id ~parent name ~sim:false t0 (host_now ());
    r
  end

(* [sim name clock f] runs [f] (a system call, inside a simulated
   process) inside a span read from the simulated [clock]. *)
let sim name clock f =
  if not !on then f ()
  else begin
    let t0 = clock () in
    let r = f () in
    add ~id:(fresh_id ()) ~parent:(parent ()) name ~sim:true t0 (clock ());
    r
  end

let total name =
  match Hashtbl.find_opt totals name with Some (_, s) -> !s | None -> 0.0

(* Count and total over every span whose name starts with [prefix]. *)
let sum_prefix prefix =
  Hashtbl.fold
    (fun name (n, s) (cn, cs) ->
      if String.starts_with ~prefix name then (cn + !n, cs +. !s) else (cn, cs))
    totals (0, 0.0)

let dump oc =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"clock\":%S,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.parent s.name
        (if s.sim then "sim" else "host")
        s.t0 s.t1)
    (List.rev !kept)
