(* Known-bad fixture: reading the host clock makes output vary from run
   to run. Expected: exactly one [wallclock] finding. *)

let stamp () = Sys.time ()
