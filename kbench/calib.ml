(* A fixed host workload timed next to every iteration.

   Host speed on a shared machine drifts by tens of percent over
   minutes, with neighbours' load and clock frequency. The benchmark
   reports host times scaled by [nominal_s / calibration time], which
   cancels drift that slows this loop and the simulator alike. The loop
   uses only the standard library, so no change to the simulator can
   move it, and it mixes what the simulator spends host time on:
   closures through a priority queue, hash-table updates, small
   allocations and 8 KB block copies through a few megabytes. *)

(* Host CPU seconds one [run] takes on the reference host. *)
let nominal_s = 0.03

module Q = Map.Make (Int)

let steps = 60_000

let run () =
  let pool = Array.init 512 (fun i -> Bytes.make 8192 (Char.chr (i land 0xff))) in
  let counts = Hashtbl.create 1024 in
  let x = ref 0x9E3779B9 in
  let next () =
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    !x land max_int
  in
  let acc = ref 0 in
  let q = ref Q.empty in
  for i = 1 to steps do
    let r = next () in
    let key = (i * 64) + (r land 63) in
    q := Q.add key (fun () -> acc := !acc + (r land 0xff)) !q;
    if i land 1 = 0 then begin
      let k, f = Q.min_binding !q in
      q := Q.remove k !q;
      f ()
    end;
    let h = r land 4095 in
    Hashtbl.replace counts h (1 + Option.value (Hashtbl.find_opt counts h) ~default:0);
    if i land 7 = 0 then begin
      let a = pool.(r land 511) and b = pool.((r lsr 9) land 511) in
      Bytes.blit a 0 b 0 8192;
      acc := !acc + Char.code (Bytes.get b (r land 8191))
    end
  done;
  !acc + Hashtbl.length counts + Q.cardinal !q

(* CPU seconds of one run. *)
let time () =
  let t0 = Span.host_now () in
  ignore (Sys.opaque_identity (run ()));
  Span.host_now () -. t0
