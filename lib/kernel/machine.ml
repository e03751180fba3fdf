open Kpath_sim
open Kpath_dev
open Kpath_proc
open Kpath_buf
open Kpath_core

type drive = Scsi of Disk.t | Ram of Ramdisk.t

type t = {
  config : Config.t;
  engine : Engine.t;
  sched : Sched.t;
  cache : Cache.t;
  splice_ctx : Splice.ctx;
  graph_ctx : Kpath_graph.Graph.ctx;
  trace : Trace.t;
  ram_arbiter : Ramdisk.arbiter;
  mutable mounts : (string * Kpath_fs.Fs.t) list;
  mutable chardevs : (string * Chardev.t) list;
  mutable framebuffers : (string * Framebuffer.t) list;
}

let create ?(config = Config.decstation_5000_200) ?engine () =
  let engine =
    match engine with Some e -> e | None -> Engine.create ()
  in
  let sched =
    Sched.create ~ctx_switch_cost:config.Config.ctx_switch_cost
      ~quantum:config.Config.quantum engine
  in
  let callout = Callout.create ~tick:config.Config.callout_tick engine in
  let cache =
    Cache.create ~block_size:config.Config.block_size
      ~nbufs:(Config.cache_nbufs config)
      ~max_cluster:config.Config.max_cluster ()
  in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let trace = Trace.create ~clock:(fun () -> Engine.now engine) () in
  let splice_ctx =
    Splice.make_ctx ~engine ~callout ~cache ~intr
      ~handler_cost:config.Config.splice_handler_cost ~trace ()
  in
  let graph_ctx =
    Kpath_graph.Graph.make_ctx splice_ctx
      ~vm_insn_cost:config.Config.vm_insn_cost
  in
  {
    config;
    engine;
    sched;
    cache;
    splice_ctx;
    graph_ctx;
    trace;
    ram_arbiter = Ramdisk.arbiter ();
    mounts = [];
    chardevs = [];
    framebuffers = [];
  }

let config t = t.config

let engine t = t.engine

let sched t = t.sched

let cache t = t.cache

let splice_ctx t = t.splice_ctx

let graph_ctx t = t.graph_ctx

let trace t = t.trace

let intr t ~service fn = Sched.interrupt t.sched ~service fn

let now t = Engine.now t.engine

let make_drive t ~name ~kind ?nblocks ?queue () =
  let block_size = t.config.Config.block_size in
  match kind with
  | `Ram ->
    let nblocks = Option.value nblocks ~default:t.config.Config.ramdisk_blocks in
    let charge_in_context span =
      if Sched.in_process_context t.sched then begin
        Process.use_cpu Process.Sys span;
        true
      end
      else false
    in
    Ram
      (Ramdisk.create ~name ~copy_rate:t.config.Config.copy_rate ~block_size
         ~nblocks ~arbiter:t.ram_arbiter ~charge_in_context ~engine:t.engine
         ~intr:(intr t) ())
  | (`Rz56 | `Rz58) as g ->
    let geometry = match g with `Rz56 -> Disk.rz56 | `Rz58 -> Disk.rz58 in
    let nblocks = Option.value nblocks ~default:4096 in
    Scsi
      (Disk.create ~name ~geometry ~block_size ~nblocks
         ~intr_service:t.config.Config.disk_intr_service ?queue
         ~engine:t.engine ~intr:(intr t) ())

let blkdev = function Scsi d -> Disk.blkdev d | Ram r -> Ramdisk.blkdev r

let normalize path =
  if String.length path = 0 || path.[0] <> '/' then
    invalid_arg "Machine: paths must be absolute";
  path

let mount t prefix fs =
  let prefix = normalize prefix in
  if List.mem_assoc prefix t.mounts then
    invalid_arg ("Machine.mount: already mounted at " ^ prefix);
  (* Keep longest prefixes first for resolution. *)
  t.mounts <-
    List.sort
      (fun (a, _) (b, _) -> compare (String.length b) (String.length a))
      ((prefix, fs) :: t.mounts)

let has_prefix ~prefix path =
  String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix
  && (String.length path = String.length prefix
      || path.[String.length prefix] = '/'
      || prefix = "/")

let resolve t path =
  let path = normalize path in
  let rec go = function
    | [] -> None
    | (prefix, fs) :: rest ->
      if has_prefix ~prefix path then
        let rel = String.sub path (String.length prefix)
            (String.length path - String.length prefix)
        in
        let rel = if rel = "" then "/" else rel in
        Some (fs, rel)
      else go rest
  in
  go t.mounts

let register_chardev t path cd =
  t.chardevs <- (normalize path, cd) :: t.chardevs

let find_chardev t path = List.assoc_opt path t.chardevs

let register_framebuffer t path fb =
  t.framebuffers <- (normalize path, fb) :: t.framebuffers

let find_framebuffer t path = List.assoc_opt path t.framebuffers

let spawn t ~name ?priority body = Sched.spawn t.sched ~name ?priority body

let run ?until t =
  Engine.run ?until t.engine;
  if until = None then Sched.check_deadlock t.sched
