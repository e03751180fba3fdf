(** The simulated machine: engine + CPU + caches + devices + namespaces.

    One [Machine.t] is one DECstation-class host: it owns the event
    engine, the scheduler, the callout list, the buffer cache and the
    splice machinery, plus the name spaces system calls resolve against —
    a mount table for filesystems and a [/dev] table for character
    devices and framebuffers. *)

open Kpath_sim
open Kpath_dev
open Kpath_proc
open Kpath_buf
open Kpath_fs
open Kpath_core

type t
(** A machine. *)

type drive =
  | Scsi of Disk.t  (** an RZ-series disk *)
  | Ram of Ramdisk.t  (** the RAM-disk driver *)

val create : ?config:Config.t -> ?engine:Engine.t -> unit -> t
(** A fresh machine (default config: the paper's DECstation 5000/200).
    Pass [engine] to place several machines on one event engine — a
    multi-host simulation sharing one clock (e.g. a TCP client and
    server with independent CPUs). *)

val config : t -> Config.t

val engine : t -> Engine.t

val sched : t -> Sched.t

val cache : t -> Cache.t

val splice_ctx : t -> Splice.ctx
(** The machine's one data-path context, shared by splices and splice
    graphs: cache, callout list, interrupt path, handler cost, counters
    and trace. *)

val graph_ctx : t -> Kpath_graph.Graph.ctx
(** The splice-graph machinery (fan-out / filter routing), built on
    {!splice_ctx}. *)

val trace : t -> Trace.t
(** The machine's trace ring (categories off by default); splice emits
    under ["splice"], splice graphs under ["graph"]. *)

val intr : t -> Blkdev.intr
(** The machine's interrupt injector ([Sched.interrupt] partially
    applied) — what devices are wired to. *)

val now : t -> Time.t

val make_drive :
  t ->
  name:string ->
  kind:[ `Rz56 | `Rz58 | `Ram ] ->
  ?nblocks:int ->
  ?queue:Disk.queue_discipline ->
  unit ->
  drive
(** Attach a disk. Default sizes: 4096 blocks (32 MB) for SCSI disks,
    [Config.ramdisk_blocks] for the RAM disk; SCSI request queueing
    defaults to FIFO ([queue] selects the elevator). *)

val blkdev : drive -> Blkdev.t
(** The generic view of a drive. *)

val mount : t -> string -> Fs.t -> unit
(** Mount a filesystem at a path prefix, e.g. ["/src"]. *)

val resolve : t -> string -> (Fs.t * string) option
(** Longest-prefix mount-table lookup: the filesystem and the remaining
    path within it. *)

val register_chardev : t -> string -> Chardev.t -> unit
(** Expose a character device, e.g. ["/dev/audio"]. *)

val find_chardev : t -> string -> Chardev.t option

val register_framebuffer : t -> string -> Framebuffer.t -> unit

val find_framebuffer : t -> string -> Framebuffer.t option

val spawn : t -> name:string -> ?priority:int -> (unit -> unit) -> Process.t
(** Start a user process on this machine. *)

val run : ?until:Time.t -> t -> unit
(** Drive the simulation ({!Kpath_sim.Engine.run}) and then check for
    deadlocked processes. *)
