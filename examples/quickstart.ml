(* Quickstart: build a machine, make two filesystems, write a file and
   splice-copy it — the complete public-API tour in ~60 lines.

   Run with: dune exec examples/quickstart.exe *)

open Kpath_sim
open Kpath_kernel

let () =
  (* A DECstation 5000/200-class machine. *)
  let m = Machine.create () in

  (* Two RZ58 disks, each with a fresh filesystem. *)
  let d0 = Machine.make_drive m ~name:"rz58-0" ~kind:`Rz58 () in
  let d1 = Machine.make_drive m ~name:"rz58-1" ~kind:`Rz58 () in
  let ok = ref true in

  (* Everything interacting with devices runs inside a simulated
     process. *)
  let _init =
    Machine.spawn m ~name:"init" (fun () ->
        let fs0 =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d0)
            ~ninodes:64
        in
        let fs1 =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev d1)
            ~ninodes:64
        in
        Machine.mount m "/a" fs0;
        Machine.mount m "/b" fs1;

        let env = Syscall.make_env m in

        (* Create a 1 MB source file through ordinary writes. *)
        let fd = Syscall.openf env "/a/data" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
        let chunk = Bytes.create 65536 in
        for i = 0 to 15 do
          Kpath_workloads.Programs.fill_pattern chunk ~file_off:(i * 65536);
          ignore (Syscall.write env fd chunk ~pos:0 ~len:65536)
        done;
        Syscall.fsync env fd;
        Syscall.close env fd;

        (* splice(2): move it to the other disk inside the kernel. *)
        let sfd = Syscall.openf env "/a/data" [ Syscall.O_RDONLY ] in
        let dfd = Syscall.openf env "/b/copy" [ Syscall.O_CREAT; Syscall.O_WRONLY ] in
        let t0 = Machine.now m in
        let n = Syscall.splice env ~src:sfd ~dst:dfd Syscall.splice_eof in
        let dt = Time.diff (Machine.now m) t0 in
        Syscall.close env sfd;
        Syscall.close env dfd;
        Format.printf "spliced %d bytes in %a (%.0f KB/s simulated)@." n
          Time.pp dt
          (Time.rate_bytes_per_sec ~bytes:n dt /. 1024.);

        (* Read the copy back and verify. *)
        let rfd = Syscall.openf env "/b/copy" [ Syscall.O_RDONLY ] in
        let off = ref 0 in
        let rec check () =
          let got = Syscall.read env rfd chunk ~pos:0 ~len:65536 in
          if got > 0 then begin
            for i = 0 to got - 1 do
              if Bytes.get chunk i <> Kpath_workloads.Programs.pattern_byte (!off + i)
              then ok := false
            done;
            off := !off + got;
            check ()
          end
        in
        check ();
        Syscall.close env rfd;
        Format.printf "verification: %s (%d bytes)@."
          (if !ok then "OK" else "CORRUPT") !off)
  in
  Machine.run m;
  let cpu = Kpath_proc.Sched.cpu (Machine.sched m) in
  Format.printf "CPU: %a@." Kpath_proc.Cpu.pp cpu;
  if not !ok then exit 1
