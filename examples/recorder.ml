(* Recorder: capture an input device straight to disk with splice.

   The reverse of the paper's §4 playback example: a microphone-class
   device produces samples at a fixed rate, and a bounded splice writes
   them to a file with no process on the data path. The take is read
   back and verified sample-for-sample; a second take from a device much
   faster than the disk shows the real-time overrun semantics.

   Run with: dune exec examples/recorder.exe *)

open Kpath_sim
open Kpath_dev
open Kpath_core
open Kpath_kernel

let record ~rate ~seconds =
  let m = Machine.create () in
  let drive = Machine.make_drive m ~name:"rz58-0" ~kind:`Rz58 () in
  let mic =
    Micdev.create ~name:"mic0" ~rate ~engine:(Machine.engine m)
      ~intr:(Machine.intr m) ()
  in
  let size = int_of_float rate * seconds in
  let ok = ref false in
  let _p =
    Machine.spawn m ~name:"recorder" (fun () ->
        let fs =
          Kpath_fs.Fs.mkfs ~cache:(Machine.cache m) (Machine.blkdev drive)
            ~ninodes:16
        in
        Machine.mount m "/" fs;
        let take = Kpath_fs.Fs.create_file fs "/take1.pcm" in
        let t0 = Machine.now m in
        let d =
          Splice.start (Machine.splice_ctx m) ~src:(Endpoint.Src_mic mic)
            ~dst:(Endpoint.dst_file fs take ()) ~size ()
        in
        (match Splice.wait d with
         | Ok n ->
           let dt = Time.diff (Machine.now m) t0 in
           (* Verify the take against the device's sample pattern. *)
           let buf = Bytes.create 8192 in
           let bad = ref 0 and off = ref 0 in
           let rec verify () =
             let want = min 8192 (size - !off) in
             if want > 0 then begin
               ignore (Kpath_fs.Fs.read fs take ~off:!off ~len:want buf ~pos:0);
               let expect = Micdev.sample_pattern ~off:!off ~len:want in
               for i = 0 to want - 1 do
                 if Bytes.get buf i <> Bytes.get expect i then incr bad
               done;
               off := !off + want;
               verify ()
             end
           in
           if Splice.overruns d = 0 then verify ();
           ok := !bad = 0;
           Format.printf
             "%7.3f MB/s: recorded %d bytes in %a, %d bytes overrun%s@."
             (rate /. 1e6) n Time.pp dt (Splice.overruns d)
             (if Splice.overruns d = 0 then
                Printf.sprintf ", verified (%d bad)" !bad
              else " (device outran the disk, samples dropped)")
         | Error e -> Format.printf "recording failed: %s@." e);
        Micdev.stop mic)
  in
  Machine.run m;
  !ok

let () =
  Format.printf "recording 3-second takes to an RZ58:@.";
  (* comfortably within disk rate *)
  let low = record ~rate:64_000.0 ~seconds:3 in
  (* CD-quality-ish, still fine *)
  let cd = record ~rate:1.4e6 ~seconds:3 in
  (* hopeless: overruns *)
  let hopeless = record ~rate:16e6 ~seconds:1 in
  if not (low && cd && hopeless) then exit 1
