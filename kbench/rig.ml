(* Machines, the benchmark's own user programs, and the per-iteration
   record every workload fills in.

   The set-up and copy programs mirror [Experiments.make_setup] and
   [Programs.spawn_cp]/[spawn_scp] system call for system call, so the
   simulated timeline is the one [kpathctl table1]/[table2] measure;
   only the file bytes differ (they come from the benchmark's seed). *)

open Kpath_sim
open Kpath_proc
open Kpath_buf
open Kpath_fs
open Kpath_kernel

let config = Config.decstation_5000_200
let block_size = config.Config.block_size
let file_bytes = 8 * 1024 * 1024
let mb = 1024.0 *. 1024.0

(* {1 Inputs} *)

(* The source file: [n] bytes from a xorshift generator keyed by [seed].
   The same seed always gives the same bytes. *)
let input ~seed n =
  let b = Bytes.create n in
  let x = ref ((seed * 0x2545F4914F6CDD1D) lxor 0x5851F42D4C957F2D) in
  if !x = 0 then x := 1;
  for i = 0 to n - 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    Bytes.unsafe_set b i (Char.unsafe_chr ((!x lsr 24) land 0xff))
  done;
  b

(* Bytes of [buf.[pos..pos+len)] that differ from [data] at [off..],
   compared a word at a time. *)
let mismatches buf ~pos ~len data ~off =
  if off + len > Bytes.length data then len
  else begin
    let bad = ref 0 in
    let count_bytes i n =
      for j = i to i + n - 1 do
        if Bytes.unsafe_get buf (pos + j) <> Bytes.unsafe_get data (off + j) then incr bad
      done
    in
    let words = len / 8 in
    for w = 0 to words - 1 do
      let i = w * 8 in
      if (Bytes.get_int64_ne buf (pos + i) : int64) <> Bytes.get_int64_ne data (off + i)
      then count_bytes i 8
    done;
    count_bytes (words * 8) (len - (words * 8));
    !bad
  end

(* {1 Per-iteration record} *)

type iter = {
  mutable setup_s : float;  (** host seconds building machines and files *)
  mutable host_s : float;  (** host seconds in the measured phase *)
  mutable attempted : int;  (** transfers whose output was checked *)
  mutable failed : int;
  mutable errors : string list;  (** broken invariants *)
  counters : (string, int) Hashtbl.t;  (** measured-phase counter deltas *)
  values : (string, float) Hashtbl.t;  (** simulated results *)
  splice_lat : Histogram.t;
  graph_lat : Histogram.t;
  mutable vm_exec_insns : int;  (** instructions of the direct VM pass *)
}

let new_iter () =
  {
    setup_s = 0.0;
    host_s = 0.0;
    attempted = 0;
    failed = 0;
    errors = [];
    counters = Hashtbl.create 64;
    values = Hashtbl.create 32;
    splice_lat = Histogram.create ();
    graph_lat = Histogram.create ();
    vm_exec_insns = 0;
  }

let error it msg = it.errors <- msg :: it.errors

let bump it name n =
  Hashtbl.replace it.counters name
    (n + Option.value (Hashtbl.find_opt it.counters name) ~default:0)

let set it name v = Hashtbl.replace it.values name v

let value it name = Option.value (Hashtbl.find_opt it.values name) ~default:0.0

let counter it name =
  Option.value (Hashtbl.find_opt it.counters name) ~default:0

(* Keep the largest value seen under [name]. *)
let set_max it name v = if v > value it name then set it name v

(* One checked transfer: [ok] says its output matched the input. *)
let checked it ok =
  it.attempted <- it.attempted + 1;
  if not ok then it.failed <- it.failed + 1

(* Host time of [f] charged to set-up or to the measured phase. *)
let in_setup it f =
  let t0 = Span.host_now () in
  let r = f () in
  it.setup_s <- it.setup_s +. (Span.host_now () -. t0);
  r

let in_measure it f =
  let t0 = Span.host_now () in
  let r = f () in
  it.host_s <- it.host_s +. (Span.host_now () -. t0);
  r

(* {1 Machines and their counters} *)

type rig = {
  m : Machine.t;
  drives : Machine.drive list;
  mutable fss : Fs.t list;
}

let cache_names =
  [ "cache.hits"; "cache.misses"; "cache.dev_reads"; "cache.dev_writes";
    "cache.cluster_reads"; "cache.cluster_writes"; "cache.sleeps"; "cache.pins" ]

let sched_names = [ "sched.dispatches"; "sched.preemptions"; "sched.wakeups" ]

let splice_names =
  [ "splice.reads_issued"; "splice.writes_issued"; "splice.cluster_reads";
    "splice.retries" ]

let graph_names =
  [ "graph.reads_issued"; "graph.read_hits"; "graph.blocks_aliased";
    "graph.writes_issued"; "graph.retries"; "graph.payload_snapshots";
    "graph.prog_runs"; "graph.prog_insns"; "graph.prog_faults" ]

let cpu r = Sched.cpu (Machine.sched r.m)

(* Every counter the benchmark reads from one machine, in a fixed order. *)
let counters r =
  let cpu = cpu r in
  let from stats names = List.map (fun n -> (n, Stats.get stats n)) names in
  let scsi f =
    List.fold_left
      (fun a -> function Machine.Scsi d -> a + f d | Machine.Ram _ -> a)
      0 r.drives
  in
  let fs name = List.fold_left (fun a fs -> a + Stats.get (Fs.stats fs) name) 0 r.fss in
  [
    ("cpu.user_ns", Time.to_ns (Cpu.user cpu));
    ("cpu.sys_ns", Time.to_ns (Cpu.sys cpu));
    ("cpu.intr_ns", Time.to_ns (Cpu.intr cpu));
    ("cpu.ctx_ns", Time.to_ns (Cpu.ctx cpu));
    ("cpu.busy_ns", Time.to_ns (Cpu.busy cpu));
    ("cpu.interrupts", Cpu.interrupts cpu);
    ("cpu.context_switches", Cpu.context_switches cpu);
  ]
  @ from (Sched.stats (Machine.sched r.m)) sched_names
  @ from (Cache.stats (Machine.cache r.m)) cache_names
  @ [
      ("disk.serviced", scsi Kpath_dev.Disk.serviced);
      ("disk.seeks", scsi Kpath_dev.Disk.seeks);
      ("disk.readahead_hits", scsi Kpath_dev.Disk.cache_hits);
      ("fs.bytes_read", fs "fs.bytes_read");
      ("fs.bytes_written", fs "fs.bytes_written");
    ]
  @ from (Kpath_core.Splice.ctx_stats (Machine.splice_ctx r.m)) splice_names
  @ from (Kpath_graph.Graph.ctx_stats (Machine.graph_ctx r.m)) graph_names

type mark = {
  k_counters : (string * int) list list;  (** per rig *)
  k_now : Time.t;
  k_events : int;
}

(* Snapshot of rigs that share one engine. *)
let mark rigs =
  match rigs with
  | [] -> invalid_arg "Rig.mark"
  | r0 :: _ ->
    {
      k_counters = List.map counters rigs;
      k_now = Machine.now r0.m;
      k_events = Engine.events_fired (Machine.engine r0.m);
    }

let merge_hist into h =
  List.iter
    (fun (lo, _, n) ->
      for _ = 1 to n do
        Histogram.add into lo
      done)
    (Histogram.buckets h)

(* Charge the counters moved since [before] to the iteration and check
   the CPU ledger. The latency histograms are cumulative per machine and
   set-up splices nothing, so each whole histogram belongs to the
   measured phase. *)
let settle it rigs before =
  let after = mark rigs in
  List.iter2
    (List.iter2 (fun (name, a) (_, b) -> bump it name (a - b)))
    after.k_counters before.k_counters;
  bump it "sim.events" (after.k_events - before.k_events);
  List.iter
    (fun r ->
      let c = cpu r in
      let buckets =
        List.fold_left Time.add Time.zero [ Cpu.user c; Cpu.sys c; Cpu.intr c; Cpu.ctx c ]
      in
      if not (Time.equal buckets (Cpu.busy c)) then
        error it "cpu buckets do not sum to Cpu.busy";
      merge_hist it.splice_lat
        (Stats.histogram (Kpath_core.Splice.ctx_stats (Machine.splice_ctx r.m))
           "splice.block_latency_us");
      merge_hist it.graph_lat
        (Stats.histogram (Kpath_graph.Graph.ctx_stats (Machine.graph_ctx r.m))
           "graph.block_latency_us"))
    rigs

(* CPU busy over elapsed time of one transfer: above 1 where the model
   does not conserve CPU capacity. *)
let busy_over_elapsed it ~cpu_s ~seconds =
  if seconds > 0.0 then set_max it "cpu.busy_over_elapsed" (cpu_s /. seconds)

(* The measured part of one simulation: [run] drives the machines. *)
let measured it rigs run =
  let before = mark rigs in
  in_measure it (fun () -> Span.host "sim.run" run);
  settle it rigs before

(* {1 System calls made by the benchmark's own processes}

   The measured programs go through these wrappers, which trace each
   call; set-up and verification call [Syscall] directly. *)

let sys env name f =
  Span.sim name (fun () -> Time.to_sec_f (Machine.now (Syscall.machine env))) f

let openf env path flags = sys env "syscall.open" (fun () -> Syscall.openf env path flags)
let close env fd = sys env "syscall.close" (fun () -> Syscall.close env fd)
let fsync env fd = sys env "syscall.fsync" (fun () -> Syscall.fsync env fd)

let read env fd buf ~len =
  sys env "syscall.read" (fun () -> Syscall.read env fd buf ~pos:0 ~len)

let write env fd buf ~pos ~len =
  sys env "syscall.write" (fun () -> Syscall.write env fd buf ~pos ~len)

(* {1 Set-up} *)

let wait_exit p =
  let finished = ref false in
  Sched.exit_hook p (fun () -> finished := true);
  finished

(* Create [path] holding [data], written in 64 KB chunks and synced. *)
let write_file env path flags data =
  let fd = Syscall.openf env path flags in
  let n = Bytes.length data in
  let rec go off =
    if off < n then begin
      ignore (Syscall.write env fd data ~pos:off ~len:(min 65536 (n - off)));
      go (off + 65536)
    end
  in
  go 0;
  Syscall.fsync env fd;
  Syscall.close env fd

(* Two drives of [disk] with a filesystem each, the source file written
   at /src/data, and both devices' cached blocks invalidated (cold
   start): [Experiments.make_setup] followed by [cold_caches]. *)
let copy_rig it ~(disk : [ `Ram | `Rz58 ]) data =
  in_setup it (fun () ->
      let m = Machine.create ~config () in
      let need = (Bytes.length data / block_size) + 64 in
      let nblocks =
        match disk with
        | `Ram -> max config.Config.ramdisk_blocks need
        | `Rz58 -> max 4096 need
      in
      let kind = (disk :> [ `Ram | `Rz56 | `Rz58 ]) in
      let drive name = Machine.make_drive m ~name ~kind ~nblocks () in
      let d0 = drive "disk0" in
      let d1 = drive "disk1" in
      let r = { m; drives = [ d0; d1 ]; fss = [] } in
      let _init =
        Machine.spawn m ~name:"init" (fun () ->
            List.iter
              (fun (d, path) ->
                let fs = Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d) ~ninodes:64 in
                Machine.mount m path fs;
                r.fss <- r.fss @ [ fs ])
              [ (d0, "/src"); (d1, "/dst") ])
      in
      Span.host "setup.mkfs" (fun () -> Machine.run m);
      if List.length r.fss <> 2 then failwith "set-up: mkfs did not finish";
      let written =
        wait_exit
          (Machine.spawn m ~name:"writer" (fun () ->
               write_file (Syscall.make_env m) "/src/data"
                 [ Syscall.O_WRONLY; Syscall.O_CREAT; Syscall.O_TRUNC ]
                 data))
      in
      Span.host "setup.write" (fun () -> Machine.run m);
      if not !written then failwith "set-up: source file not written";
      List.iter (fun fs -> Cache.invalidate_dev (Machine.cache m) (Fs.dev fs)) r.fss;
      r)

(* {1 Copiers: the paper's cp and scp} *)

type copy = {
  mutable bytes : int;
  mutable copies : int;
  mutable started : Time.t;
  mutable finished : Time.t;  (** end of the last complete copy *)
  mutable cpu : Time.span;  (** machine CPU busy while the copier ran *)
}

let fresh_copy () =
  { bytes = 0; copies = 0; started = Time.zero; finished = Time.zero; cpu = Time.zero }

(* After [total] bytes, sleep until the [rate] schedule catches up. The
   schedule starts when the pacer is made, as in [Programs]. *)
let pacer m = function
  | None -> fun _ -> ()
  | Some rate ->
    let started = Machine.now m in
    fun total ->
      let target = Time.add started (Time.span_of_bytes ~bytes_per_sec:rate total) in
      let now = Machine.now m in
      if Time.(target > now) then Sched.sleep (Machine.sched m) (Time.diff target now)

let cp_once env ~src ~dst ~pace c =
  let sfd = openf env src [ Syscall.O_RDONLY ] in
  let dfd = openf env dst [ Syscall.O_WRONLY; Syscall.O_CREAT; Syscall.O_TRUNC ] in
  let buf = Bytes.create 8192 in
  let rec loop () =
    let n = read env sfd buf ~len:8192 in
    if n > 0 then begin
      ignore (write env dfd buf ~pos:0 ~len:n);
      c.bytes <- c.bytes + n;
      pace c.bytes;
      loop ()
    end
  in
  loop ();
  fsync env dfd;
  close env sfd;
  close env dfd

(* Unpaced: one whole-file splice. Paced: 64 KB splices on the rate
   schedule, the paper's §4 way of controlling the rate. *)
let scp_once env ~src ~dst ~pace ~paced c =
  let sfd = openf env src [ Syscall.O_RDONLY ] in
  let dfd = openf env dst [ Syscall.O_WRONLY; Syscall.O_CREAT; Syscall.O_TRUNC ] in
  let splice size =
    sys env "syscall.splice" (fun () -> Syscall.splice env ~src:sfd ~dst:dfd size)
  in
  if not paced then c.bytes <- c.bytes + splice Syscall.splice_eof
  else begin
    let size = sys env "syscall.fstat" (fun () -> Syscall.file_size env sfd) in
    let rec go off =
      if off < size then begin
        let n = splice (min 65536 (size - off)) in
        c.bytes <- c.bytes + n;
        pace c.bytes;
        if n > 0 then go (off + n)
      end
    in
    go 0
  end;
  fsync env dfd;
  close env sfd;
  close env dfd

(* /src/data to /dst/copy, once or (with [stop]) until [stop] is set
   after a complete copy. *)
let spawn_copier r ~mode ?pace ?stop c =
  let pace_fn = pacer r.m pace in
  let src = "/src/data" and dst = "/dst/copy" in
  let name = match mode with `Cp -> "cp" | `Scp -> "scp" in
  Machine.spawn r.m ~name (fun () ->
      let env = Syscall.make_env r.m in
      c.started <- Machine.now r.m;
      let cpu0 = Cpu.busy (cpu r) in
      let rec go () =
        (match mode with
         | `Cp -> cp_once env ~src ~dst ~pace:pace_fn c
         | `Scp -> scp_once env ~src ~dst ~pace:pace_fn ~paced:(pace <> None) c);
        c.copies <- c.copies + 1;
        c.finished <- Machine.now r.m;
        match stop with Some s when not !s -> go () | Some _ | None -> ()
      in
      go ();
      c.cpu <- Time.diff (Cpu.busy (cpu r)) cpu0)

(* {1 Output checks} *)

(* Check that [path] (a file under a mount point of [r]) holds [data]
   on its device: a simulated process looks up the file's size and
   block list, and the blocks the device stores are compared with
   [data]. Called after the file was synced; its host time is the
   benchmark's own and stays out of the measured phase. *)
let verify_file it r ~path data =
  Span.host "verify" (fun () ->
    let found = ref None in
    let fs, rel =
      match Machine.resolve r.m path with
      | Some x -> x
      | None -> invalid_arg ("verify_file: no file system for " ^ path)
    in
    let p =
      Machine.spawn r.m ~name:"verifier" (fun () ->
          match Fs.lookup fs rel with
          | ino -> found := Some (ino.Inode.size, Fs.block_list fs ino)
          | exception Fs_error.Error _ -> ())
    in
    Machine.run r.m;
    if not (Process.is_zombie p) then error it ("verifier stuck on " ^ path);
    let peek =
      match List.find (fun d -> Machine.blkdev d == Fs.dev fs) r.drives with
      | Machine.Scsi d -> Kpath_dev.Disk.read_block_direct d
      | Machine.Ram d -> Kpath_dev.Ramdisk.read_block_direct d
    in
    let ok =
      match !found with
      | None -> false
      | Some (size, blocks) ->
        size = Bytes.length data
        && List.length blocks = (size + block_size - 1) / block_size
        && List.for_all
             (fun (i, b) ->
               let off = i * block_size in
               mismatches (peek b) ~pos:0 ~len:(min block_size (size - off)) data ~off
               = 0)
             (List.mapi (fun i b -> (i, b)) blocks)
    in
    checked it ok)
