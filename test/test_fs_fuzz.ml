(* Model-based filesystem fuzzing: random operation sequences are applied
   both to the real filesystem and to a trivial in-memory model; after
   every sequence the two must agree and fsck must be clean, and after a
   sync they must agree block by block on the device as well. A remount
   round-trip closes each run. *)

open Kpath_sim
open Kpath_proc
open Kpath_dev
open Kpath_buf
open Kpath_fs

type op =
  | Create of int
  | Write of int * int * int (* file, off, len *)
  | Truncate of int * int
  | Unlink of int
  | Link of int * int (* existing file, fresh name *)
  | Rename of int * int

let pp_op = function
  | Create n -> Printf.sprintf "create f%d" n
  | Write (f, off, len) -> Printf.sprintf "write f%d off=%d len=%d" f off len
  | Truncate (f, n) -> Printf.sprintf "truncate f%d %d" f n
  | Unlink f -> Printf.sprintf "unlink f%d" f
  | Link (a, b) -> Printf.sprintf "link f%d f%d" a b
  | Rename (a, b) -> Printf.sprintf "rename f%d f%d" a b

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Create n) (int_bound 7));
        ( 6,
          map3
            (fun f off len -> Write (f, off, len))
            (int_bound 7) (int_bound 30_000) (int_bound 9_000) );
        (2, map2 (fun f n -> Truncate (f, n)) (int_bound 7) (int_bound 20_000));
        (2, map (fun f -> Unlink f) (int_bound 7));
        (2, map2 (fun a b -> Link (a, b)) (int_bound 7) (int_bound 7));
        (2, map2 (fun a b -> Rename (a, b)) (int_bound 7) (int_bound 7));
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (1 -- 40) gen_op)

(* The model: name slot -> contents. Hard links share a content cell. *)
type cell = { mutable data : Bytes.t }

let model_write cell ~off ~len =
  let needed = off + len in
  if Bytes.length cell.data < needed then begin
    let d = Bytes.make needed '\000' in
    Bytes.blit cell.data 0 d 0 (Bytes.length cell.data);
    cell.data <- d
  end;
  for i = 0 to len - 1 do
    Bytes.set cell.data (off + i) (Char.chr ((off + i) land 0xff))
  done

let model_truncate cell n =
  if Bytes.length cell.data > n then cell.data <- Bytes.sub cell.data 0 n
  else if Bytes.length cell.data < n then begin
    let d = Bytes.make n '\000' in
    Bytes.blit cell.data 0 d 0 (Bytes.length cell.data);
    cell.data <- d
  end

let name k = Printf.sprintf "/f%d" k

let run_ops ~nbufs ops =
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let rd =
    Ramdisk.create ~name:"ram0" ~copy_rate:200e6 ~block_size:4096 ~nblocks:512
      ~engine ~intr ()
  in
  let dev = Ramdisk.blkdev rd in
  let cache = Cache.create ~block_size:4096 ~nbufs () in
  let verdict = ref (Ok ()) in
  let _p =
    Sched.spawn sched ~name:"fuzz" (fun () ->
        let fs = Fs.mkfs ~cache dev ~ninodes:24 in
        let model : cell option array = Array.make 8 None in
        let apply op =
          (* Apply to the real fs and mirror the outcome in the model;
             error outcomes must leave both unchanged. *)
          match op with
          | Create k -> (
            match Fs.create_file fs (name k) with
            | _ -> model.(k) <- Some { data = Bytes.empty }
            | exception Fs_error.Error (Eexist | Enospc) -> ())
          | Write (k, off, len) -> (
            match model.(k) with
            | None -> ()
            | Some cell -> (
              let src =
                Bytes.init len (fun i -> Char.chr ((off + i) land 0xff))
              in
              match
                Fs.write fs (Fs.lookup fs (name k)) ~off ~len src ~pos:0
              with
              | _ -> model_write cell ~off ~len
              | exception Fs_error.Error (Enospc | Efbig) -> ()))
          | Truncate (k, n) -> (
            match model.(k) with
            | None -> ()
            | Some cell ->
              Fs.truncate fs (Fs.lookup fs (name k)) n;
              model_truncate cell n)
          | Unlink k -> (
            match model.(k) with
            | None -> ()
            | Some _ ->
              Fs.unlink fs (name k);
              model.(k) <- None)
          | Link (a, b) -> (
            match (model.(a), model.(b)) with
            | Some cell, None ->
              Fs.link fs (name a) (name b);
              model.(b) <- Some cell (* shared content cell *)
            | _ -> ())
          | Rename (a, b) ->
            if a <> b then (
              match model.(a) with
              | None -> ()
              | Some cell -> (
                match model.(b) with
                | Some cell_b when cell_b == cell ->
                  (* Two hard links of one inode: POSIX rename is a
                     no-op, both names survive. *)
                  Fs.rename fs (name a) (name b)
                | _ -> (
                  match Fs.rename fs (name a) (name b) with
                  | () ->
                    model.(b) <- Some cell;
                    model.(a) <- None
                  | exception Fs_error.Error _ -> ())))
        in
        List.iter apply ops;
        (* Check: every model file reads back exactly; fsck clean;
           then remount and check again. *)
        let check fs tag =
          Array.iteri
            (fun k cell ->
              match cell with
              | None -> (
                match Fs.lookup fs (name k) with
                | _ -> failwith (tag ^ ": " ^ name k ^ " should not exist")
                | exception Fs_error.Error Enoent -> ())
              | Some { data } ->
                let ino = Fs.lookup fs (name k) in
                if ino.Inode.size <> Bytes.length data then
                  failwith
                    (Printf.sprintf "%s: %s size %d, model %d" tag (name k)
                       ino.Inode.size (Bytes.length data));
                let out = Bytes.create (max 1 ino.Inode.size) in
                let n = Fs.read fs ino ~off:0 ~len:ino.Inode.size out ~pos:0 in
                if Bytes.sub out 0 n <> data then
                  failwith (tag ^ ": contents diverge for " ^ name k))
            model;
          match Fs.fsck fs with
          | [] -> ()
          | problems -> failwith (tag ^ ": fsck: " ^ String.concat "; " problems)
        in
        (* After a sync the device itself must hold every file: a write
           into a sealed area (one skipping [Cache.own]) would change
           another block's stored bytes. Holes read as zeros. *)
        let check_device () =
          let bs = Fs.block_size fs in
          Array.iteri
            (fun k cell ->
              match cell with
              | None -> ()
              | Some { data } ->
                let ino = Fs.lookup fs (name k) in
                let size = Bytes.length data in
                for lblk = 0 to ((size + bs - 1) / bs) - 1 do
                  let n = min bs (size - (lblk * bs)) in
                  let got =
                    match Fs.bmap fs ino lblk with
                    | Some phys ->
                      Bytes.sub (Ramdisk.read_block_direct rd phys) 0 n
                    | None -> Bytes.make n '\000'
                  in
                  if got <> Bytes.sub data (lblk * bs) n then
                    failwith
                      (Printf.sprintf "device: %s block %d diverges" (name k)
                         lblk)
                done)
            model
        in
        (try
           check fs "live";
           Fs.sync fs;
           check_device ();
           Cache.invalidate_dev cache dev;
           let fs2 = Fs.mount ~cache dev in
           check fs2 "remounted"
         with e -> verdict := Error e))
  in
  Engine.run engine;
  Sched.check_deadlock sched;
  Cache.check_invariants cache;
  match !verdict with Ok () -> true | Error e -> raise e

let prop_fs_model =
  QCheck.Test.make ~name:"fs agrees with model under random op sequences"
    ~count:60 arb_ops (run_ops ~nbufs:24)

(* Few buffers, so blocks are flushed and buffers recycled often: a
   recycled buffer still holds its old block's sealed area. *)
let prop_fs_model_small_cache =
  QCheck.Test.make ~name:"8-buffer cache agrees with model" ~count:60 arb_ops
    (run_ops ~nbufs:8)

(* Directed regression cases for link/rename semantics. *)
let test_hardlink_shares_data () =
  let ok = ref false in
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let rd =
    Ramdisk.create ~name:"r" ~copy_rate:200e6 ~block_size:4096 ~nblocks:128
      ~engine ~intr ()
  in
  let cache = Cache.create ~block_size:4096 ~nbufs:16 () in
  let _p =
    Sched.spawn sched ~name:"t" (fun () ->
        let fs = Fs.mkfs ~cache (Ramdisk.blkdev rd) ~ninodes:16 in
        let f = Fs.create_file fs "/a" in
        ignore (Fs.write fs f ~off:0 ~len:5 (Bytes.of_string "hello") ~pos:0);
        Fs.link fs "/a" "/b";
        Alcotest.(check int) "nlink" 2 f.Inode.nlink;
        (* Write through one name, read through the other. *)
        ignore (Fs.write fs f ~off:0 ~len:5 (Bytes.of_string "world") ~pos:0);
        let g = Fs.lookup fs "/b" in
        let out = Bytes.create 5 in
        ignore (Fs.read fs g ~off:0 ~len:5 out ~pos:0);
        Alcotest.(check string) "shared" "world" (Bytes.to_string out);
        (* Dropping one link keeps the data. *)
        Fs.unlink fs "/a";
        Alcotest.(check int) "nlink back to 1" 1 g.Inode.nlink;
        Alcotest.(check bool) "still alive" true (g.Inode.ftype = Inode.Regular);
        Fs.unlink fs "/b";
        Alcotest.(check bool) "now freed" true (g.Inode.ftype = Inode.Free);
        Alcotest.(check (list string)) "fsck" [] (Fs.fsck fs);
        ok := true)
  in
  Engine.run engine;
  Alcotest.(check bool) "ran" true !ok

let test_rename_replaces () =
  let ok = ref false in
  let engine = Engine.create () in
  let sched = Sched.create engine in
  let intr ~service fn = Sched.interrupt sched ~service fn in
  let rd =
    Ramdisk.create ~name:"r" ~copy_rate:200e6 ~block_size:4096 ~nblocks:128
      ~engine ~intr ()
  in
  let cache = Cache.create ~block_size:4096 ~nbufs:16 () in
  let _p =
    Sched.spawn sched ~name:"t" (fun () ->
        let fs = Fs.mkfs ~cache (Ramdisk.blkdev rd) ~ninodes:16 in
        let free0 = ref 0 in
        let a = Fs.create_file fs "/a" in
        ignore (Fs.write fs a ~off:0 ~len:3 (Bytes.of_string "AAA") ~pos:0);
        let b = Fs.create_file fs "/b" in
        ignore (Fs.write fs b ~off:0 ~len:4096 (Bytes.create 4096) ~pos:0);
        free0 := Fs.free_blocks fs;
        (* Replacing /b must free its storage. *)
        Fs.rename fs "/a" "/b";
        Alcotest.(check bool) "b's block freed" true (Fs.free_blocks fs > !free0);
        Alcotest.check_raises "/a gone" (Fs_error.Error Fs_error.Enoent)
          (fun () -> ignore (Fs.lookup fs "/a"));
        let nb = Fs.lookup fs "/b" in
        let out = Bytes.create 3 in
        ignore (Fs.read fs nb ~off:0 ~len:3 out ~pos:0);
        Alcotest.(check string) "contents moved" "AAA" (Bytes.to_string out);
        (* Directory rename. *)
        ignore (Fs.mkdir fs "/d");
        Fs.rename fs "/d" "/e";
        ignore (Fs.lookup fs "/e");
        Alcotest.(check (list string)) "fsck" [] (Fs.fsck fs);
        ok := true)
  in
  Engine.run engine;
  Alcotest.(check bool) "ran" true !ok

let suite =
  [
    Alcotest.test_case "hard links" `Quick test_hardlink_shares_data;
    Alcotest.test_case "rename semantics" `Quick test_rename_replaces;
    Util.qcheck prop_fs_model;
    Util.qcheck prop_fs_model_small_cache;
  ]
