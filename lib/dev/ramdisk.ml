open Kpath_sim

type arbiter = { mutable busy_until : Time.t }

let arbiter () = { busy_until = Time.zero }

let k_reads = Stats.key "ramdisk.reads"
let k_writes = Stats.key "ramdisk.writes"

type t = {
  copy_rate : float;
  engine : Engine.t;
  intr : Blkdev.intr;
  store : Blkdev.store; (* the "BSS region" *)
  arb : arbiter; (* bcopies are serialised on the one CPU *)
  charge_in_context : Time.span -> bool;
  mutable serviced : int;
  stats : Stats.t;
  mutable dev : Blkdev.t option;
}

let create ~name ~copy_rate ~block_size ~nblocks ?arbiter:arb
    ?(charge_in_context = fun _ -> false) ~engine ~intr () =
  if block_size <= 0 || nblocks <= 0 then invalid_arg "Ramdisk.create: bad geometry";
  let t =
    {
      copy_rate;
      engine;
      intr;
      store = Blkdev.store ~name ~block_size ~nblocks;
      arb = (match arb with Some a -> a | None -> arbiter ());
      charge_in_context;
      serviced = 0;
      stats = Stats.create ();
      dev = None;
    }
  in
  let rec dev =
    {
      Blkdev.dv_name = name;
      dv_id = Blkdev.next_id ();
      dv_block_size = block_size;
      dv_nblocks = nblocks;
      dv_strategy =
        (fun req ->
          Blkdev.check_req dev req;
          Stats.incr (Stats.at t.stats (if req.r_write then k_writes else k_reads));
          let copy_time =
            Time.span_of_bytes ~bytes_per_sec:t.copy_rate
              (Array.length req.r_bufs * block_size)
          in
          let finish () =
            let error = Blkdev.transfer t.store req in
            t.serviced <- t.serviced + 1;
            req.r_done error
          in
          if t.charge_in_context copy_time then
            (* The bcopy ran synchronously in the calling process (time
               already consumed). Deliver the completion from the event
               loop so that r_done is never called re-entrantly from
               within strategy — callers may still be tagging the
               request (the bread_nb contract). *)
            ignore (Engine.schedule t.engine ~at:(Engine.now t.engine) finish)
          else begin
            (* Interrupt-level bcopy: steals the CPU; overlapping
               requests queue behind the one in progress. *)
            let start = Time.max (Engine.now t.engine) t.arb.busy_until in
            let done_at = Time.add start copy_time in
            t.arb.busy_until <- done_at;
            t.intr ~service:copy_time (fun () -> ());
            ignore (Engine.schedule t.engine ~at:done_at finish)
          end);
      dv_stats = t.stats;
    }
  in
  t.dev <- Some dev;
  t

let blkdev t = Option.get t.dev

let read_block_direct t blkno = Blkdev.read_block_direct t.store blkno

let inject_error t ~blkno = Blkdev.inject_error t.store ~blkno

let serviced t = t.serviced
