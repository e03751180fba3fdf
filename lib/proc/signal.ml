type number = int

let sigint = 2
let sigalrm = 14
let sigio = 23

let bit n =
  if n < 0 || n > 30 then invalid_arg "Signal: number out of range";
  1 lsl n

let handle (p : Process.t) n fn =
  ignore (bit n);
  p.sig_handlers <- (n, fn) :: List.remove_assoc n p.sig_handlers

let ignore_signal (p : Process.t) n =
  p.sig_handlers <- List.remove_assoc n p.sig_handlers

let deliver sched (p : Process.t) n =
  if not (Process.is_zombie p) then begin
    p.sig_pending <- p.sig_pending lor bit n;
    match p.intr_waker with
    | Some waker ->
      p.intr_waker <- None;
      waker ();
      (* The waker enqueues; ensure an idle CPU picks the process up. *)
      ignore sched
    | None -> ()
  end

let pending (p : Process.t) =
  let rec go n acc =
    if n < 0 then acc
    else if p.sig_pending land bit n <> 0 then go (n - 1) (n :: acc)
    else go (n - 1) acc
  in
  go 30 []

(* Every system call's exit lands here, almost always with nothing
   pending: that case is one test, with no walk over the bits and no
   list built. *)
let take_pending (p : Process.t) =
  if p.sig_pending <> 0 then begin
    let sigs = pending p in
    p.sig_pending <- 0;
    List.iter
      (fun n ->
        match List.assoc_opt n p.sig_handlers with
        | Some fn -> fn ()
        | None -> ())
      sigs
  end
