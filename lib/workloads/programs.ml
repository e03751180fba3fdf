open Kpath_sim
open Kpath_proc
open Kpath_kernel

type copy_stats = {
  mutable bytes_copied : int;
  mutable copies_done : int;
  mutable copy_started : Time.t;
  mutable copy_finished : Time.t;
}

let fresh_copy_stats () =
  {
    bytes_copied = 0;
    copies_done = 0;
    copy_started = Time.zero;
    copy_finished = Time.zero;
  }

type test_stats = {
  mutable ops_done : int;
  mutable test_started : Time.t;
  mutable test_finished : Time.t option;
}

let fresh_test_stats () =
  { ops_done = 0; test_started = Time.zero; test_finished = None }

(* A 31-stride ramp, shifted at every fourth offset in turn by one byte
   of the offset's 4 KB page index: the ramp alone repeats every 256
   bytes, and with the page folded in no two pages of a file (so no two
   blocks of 4 KB or more) carry the same bytes, and a block written at
   another block's offset shows. *)
let pattern_code i =
  ((i * 31) + 7 + (((i lsr 12) lsr ((i land 3) lsl 3)) * 97)) land 0xff

let pattern_byte i = Char.chr (pattern_code i)

let fill_pattern buf ~file_off =
  for i = 0 to Bytes.length buf - 1 do
    Bytes.set buf i (pattern_byte (file_off + i))
  done

(* Verification is on the per-byte hot path of every streaming
   experiment (gigabytes at high client counts), so count mismatches
   with unsafe reads against [pattern_code], with no char per byte. *)
let pattern_mismatches buf ~pos ~len ~file_off =
  let bad = ref 0 in
  for i = 0 to len - 1 do
    if Char.code (Bytes.unsafe_get buf (pos + i)) <> pattern_code (file_off + i)
    then incr bad
  done;
  !bad

let spawn_test_program m ~ops ?(op_cost = Time.ms 1) stats =
  stats.test_started <- Machine.now m;
  Machine.spawn m ~name:"test-program" (fun () ->
      for _ = 1 to ops do
        Process.use_cpu Process.User op_cost;
        stats.ops_done <- stats.ops_done + 1
      done;
      stats.test_finished <- Some (Machine.now m))

let write_pattern env path flags ~bytes =
  let fd = Syscall.openf env path flags in
  let chunk = 64 * 1024 in
  let buf = Bytes.create chunk in
  let rec go off =
    if off < bytes then begin
      let n = min chunk (bytes - off) in
      fill_pattern buf ~file_off:off;
      ignore (Syscall.write env fd buf ~pos:0 ~len:n);
      go (off + n)
    end
  in
  go 0;
  Syscall.fsync env fd;
  Syscall.close env fd

let spawn_file_writer m ~path ~bytes =
  Machine.spawn m ~name:"writer" (fun () ->
      write_pattern (Syscall.make_env m) path
        [ Syscall.O_WRONLY; Syscall.O_CREAT; Syscall.O_TRUNC ]
        ~bytes)

(* A pacer keeps a copy at a fixed application data rate: after moving
   [total] bytes since [started], sleep until the target schedule
   catches up. *)
let make_pacer m = function
  | None -> fun _total -> ()
  | Some rate ->
    let started = Machine.now m in
    fun total ->
      let target = Time.add started (Time.span_of_bytes ~bytes_per_sec:rate total) in
      let now = Machine.now m in
      if Time.(target > now) then
        Kpath_proc.Sched.sleep (Machine.sched m) (Time.diff target now)

(* One read/write pass over the whole source file, the paper's cp. *)
let cp_once env ~src ~dst ~bufsize ~pace (stats : copy_stats) =
  let sfd = Syscall.openf env src [ Syscall.O_RDONLY ] in
  let dfd =
    Syscall.openf env dst [ Syscall.O_WRONLY; Syscall.O_CREAT; Syscall.O_TRUNC ]
  in
  let buf = Bytes.create bufsize in
  let rec loop () =
    let n = Syscall.read env sfd buf ~pos:0 ~len:bufsize in
    if n > 0 then begin
      ignore (Syscall.write env dfd buf ~pos:0 ~len:n);
      stats.bytes_copied <- stats.bytes_copied + n;
      pace stats.bytes_copied;
      loop ()
    end
  in
  loop ();
  Syscall.fsync env dfd;
  Syscall.close env sfd;
  Syscall.close env dfd

let scp_once env ~src ~dst ?config ~chunk_bytes ~pace ~paced (stats : copy_stats) =
  let sfd = Syscall.openf env src [ Syscall.O_RDONLY ] in
  let dfd =
    Syscall.openf env dst [ Syscall.O_WRONLY; Syscall.O_CREAT; Syscall.O_TRUNC ]
  in
  let splice_bytes size = Syscall.splice env ~src:sfd ~dst:dfd ?config size in
  if not paced then begin
    let n = splice_bytes Syscall.splice_eof in
    stats.bytes_copied <- stats.bytes_copied + n
  end
  else begin
    (* Rate control the paper's way (§4): bounded transfer quanta at
       timed intervals. *)
    let size = Syscall.file_size env sfd in
    let rec go off =
      if off < size then begin
        let n = splice_bytes (min chunk_bytes (size - off)) in
        stats.bytes_copied <- stats.bytes_copied + n;
        pace stats.bytes_copied;
        if n > 0 then go (off + n)
      end
    in
    go 0
  end;
  (* Match cp's durability point: force the destination metadata out. *)
  Syscall.fsync env dfd;
  Syscall.close env sfd;
  Syscall.close env dfd

let copier name m ~loop_until (stats : copy_stats) once =
  Machine.spawn m ~name (fun () ->
      let env = Syscall.make_env m in
      stats.copy_started <- Machine.now m;
      let rec go () =
        once env;
        stats.copies_done <- stats.copies_done + 1;
        stats.copy_finished <- Machine.now m;
        match loop_until with
        | Some stop when not !stop -> go ()
        | Some _ | None -> ()
      in
      go ())

let spawn_cp m ~src ~dst ?(bufsize = 8192) ?pace ?loop_until stats =
  let pacer = make_pacer m pace in
  copier "cp" m ~loop_until stats (fun env ->
      cp_once env ~src ~dst ~bufsize ~pace:pacer stats)

let spawn_scp m ~src ~dst ?config ?(chunk_bytes = 64 * 1024) ?pace ?loop_until
    stats =
  let pacer = make_pacer m pace in
  copier "scp" m ~loop_until stats (fun env ->
      scp_once env ~src ~dst ?config ~chunk_bytes ~pace:pacer
        ~paced:(pace <> None) stats)

(* mmap-based copy: page faults plus a single user copy per page. The
   VM path is modeled on the same filesystem machinery, but without the
   read/write syscalls or their copyin/copyout: a read fault brings the
   source page in through the cache (device I/O, no user copy); the
   user's memcpy is the one explicit copy charge; the dirtied
   destination page is a delayed write, forced out by the final msync.
   Only mmap/munmap/msync enter the kernel as syscalls. *)
let mcp_once env ~src ~dst (stats : copy_stats) =
  let m = Syscall.machine env in
  let cfg = Machine.config m in
  let page = cfg.Config.block_size in
  let resolve path =
    match Machine.resolve m path with
    | Some (fs, rel) -> (fs, rel)
    | None -> failwith ("mcp: no filesystem for " ^ path)
  in
  let src_fs, src_rel = resolve src in
  let dst_fs, dst_rel = resolve dst in
  (* mmap both files: two syscalls. *)
  Process.use_cpu Process.Sys (Time.scale cfg.Config.syscall_overhead 2);
  let src_ino = Kpath_fs.Fs.lookup src_fs src_rel in
  let dst_ino =
    try Kpath_fs.Fs.lookup dst_fs dst_rel
    with Kpath_fs.Fs_error.Error Kpath_fs.Fs_error.Enoent ->
      Kpath_fs.Fs.create_file dst_fs dst_rel
  in
  Kpath_fs.Fs.truncate dst_fs dst_ino 0;
  let size = src_ino.Kpath_fs.Inode.size in
  let buf = Bytes.create page in
  let rec copy_page off =
    if off < size then begin
      let n = min page (size - off) in
      (* Read fault: trap + bring the source page in via the cache. *)
      Process.use_cpu Process.Sys cfg.Config.page_fault_cost;
      ignore (Kpath_fs.Fs.read src_fs src_ino ~off ~len:n buf ~pos:0);
      (* Write fault on the destination page. *)
      Process.use_cpu Process.Sys cfg.Config.page_fault_cost;
      (* The user's single memcpy between the two mappings. *)
      Process.use_cpu Process.User (Config.copy_cost cfg n);
      ignore (Kpath_fs.Fs.write dst_fs dst_ino ~off ~len:n buf ~pos:0);
      stats.bytes_copied <- stats.bytes_copied + n;
      copy_page (off + page)
    end
  in
  copy_page 0;
  (* msync + munmap: force the dirty destination pages out. *)
  Process.use_cpu Process.Sys (Time.scale cfg.Config.syscall_overhead 2);
  Kpath_fs.Fs.fsync dst_fs dst_ino

let spawn_mcp m ~src ~dst ?loop_until stats =
  copier "mcp" m ~loop_until stats (fun env -> mcp_once env ~src ~dst stats)

let spawn_verifier m ~path ~expect_bytes k =
  Machine.spawn m ~name:"verifier" (fun () ->
      let env = Syscall.make_env m in
      let fd = Syscall.openf env path [ Syscall.O_RDONLY ] in
      let chunk = 64 * 1024 in
      let buf = Bytes.create chunk in
      let ok = ref (Syscall.file_size env fd = expect_bytes) in
      let rec go off =
        let n = Syscall.read env fd buf ~pos:0 ~len:chunk in
        if n > 0 then begin
          if pattern_mismatches buf ~pos:0 ~len:n ~file_off:off > 0 then
            ok := false;
          go (off + n)
        end
        else if off <> expect_bytes then ok := false
      in
      go 0;
      Syscall.close env fd;
      k !ok)
