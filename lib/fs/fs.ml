open Kpath_sim
open Kpath_dev
open Kpath_buf
open Kpath_proc

let k_blocks_allocated = Stats.key "fs.blocks_allocated"
let k_blocks_freed = Stats.key "fs.blocks_freed"
let k_zero_fills = Stats.key "fs.zero_fills"
let k_bmap = Stats.key "fs.bmap"
let k_bmap_alloc = Stats.key "fs.bmap_alloc"
let k_reads = Stats.key "fs.reads"
let k_writes = Stats.key "fs.writes"
let k_truncates = Stats.key "fs.truncates"
let k_creates = Stats.key "fs.creates"
let k_unlinks = Stats.key "fs.unlinks"
let k_links = Stats.key "fs.links"
let k_renames = Stats.key "fs.renames"
let k_syncs = Stats.key "fs.syncs"
let k_fsyncs = Stats.key "fs.fsyncs"
let k_bytes_read = Stats.key "fs.bytes_read"
let k_bytes_written = Stats.key "fs.bytes_written"

type t = {
  dev : Blkdev.t;
  cache : Cache.t;
  sb : Layout.superblock;
  alloc : Alloc.t;
  inodes : Inode.t array;
  mutable meta_dirty : bool;
  stats : Stats.t;
}

let dev t = t.dev

let cache t = t.cache

let block_size t = t.sb.Layout.sb_block_size

let stats t = t.stats

let free_blocks t = Alloc.free_count t.alloc

let err = Fs_error.raise_err

let count k t = Stats.incr (Stats.at t.stats k)

(* {1 Locking} *)

let[@kpath.blocks] ilock (ino : Inode.t) =
  while ino.locked do
    Process.block "ilock" (fun w -> ino.lock_waiters <- w :: ino.lock_waiters)
  done;
  ino.locked <- true

let iunlock (ino : Inode.t) =
  if not ino.locked then invalid_arg "iunlock: not locked";
  ino.locked <- false;
  let ws = ino.lock_waiters in
  ino.lock_waiters <- [];
  List.iter (fun w -> w ()) (List.rev ws)

let with_ilock ino f =
  ilock ino;
  match f () with
  | v ->
    iunlock ino;
    v
  | exception e ->
    iunlock ino;
    raise e

(* {1 Cache access helpers} *)

let[@kpath.transfers] bread_checked t blkno =
  let b = Cache.bread t.cache t.dev blkno in
  match b.Buf.b_error with
  | Some (Blkdev.Io_error msg) ->
    Cache.brelse t.cache b;
    err (Fs_error.Eio msg)
  | None -> b

(* {1 Block allocation} *)

let alloc_block t =
  match Alloc.alloc t.alloc with
  | Some b ->
    t.meta_dirty <- true;
    count k_blocks_allocated t;
    b
  | None -> err Fs_error.Enospc

let free_block t blkno =
  Alloc.free t.alloc blkno;
  t.meta_dirty <- true;
  count k_blocks_freed t

(* Zero-fill a freshly allocated block through the cache as a delayed
   write — the standard allocation path splice's special bmap skips. *)
let zero_fill_block t blkno =
  let b = Cache.getblk t.cache t.dev blkno in
  Cache.own t.cache b ~keep:false;
  Bytes.fill b.Buf.b_data 0 (Bytes.length b.Buf.b_data) '\000';
  Cache.bdwrite t.cache b;
  count k_zero_fills t

(* Read an indirect block and return the 32-bit entry at [idx];
   [set] updates it (delayed write). *)
let indirect_get t blkno idx =
  let b = bread_checked t blkno in
  let v = Int32.to_int (Bytes.get_int32_le b.Buf.b_data (idx * 4)) in
  Cache.brelse t.cache b;
  v

let indirect_set t blkno idx v =
  let b = bread_checked t blkno in
  Cache.own t.cache b ~keep:true;
  Bytes.set_int32_le b.Buf.b_data (idx * 4) (Int32.of_int v);
  Cache.bdwrite t.cache b

(* Allocate an indirect block (zero-filled: its entries must read as
   nil). *)
let alloc_indirect t =
  let blkno = alloc_block t in
  zero_fill_block t blkno;
  blkno

(* {1 bmap} *)

let apb t = Layout.addrs_per_block t.sb

let check_lblk t lblk =
  if lblk < 0 then err (Fs_error.Einval "negative logical block");
  if lblk >= Layout.max_file_blocks t.sb then err Fs_error.Efbig

let bmap t (ino : Inode.t) lblk =
  check_lblk t lblk;
  count k_bmap t;
  let nil_opt v = if v = 0 then None else Some v in
  if lblk < Layout.ndirect then nil_opt ino.direct.(lblk)
  else
    let lblk = lblk - Layout.ndirect in
    if lblk < apb t then
      if ino.single = 0 then None else nil_opt (indirect_get t ino.single lblk)
    else
      let lblk = lblk - apb t in
      if ino.double = 0 then None
      else
        let l1 = indirect_get t ino.double (lblk / apb t) in
        if l1 = 0 then None else nil_opt (indirect_get t l1 (lblk mod apb t))

let bmap_alloc t (ino : Inode.t) lblk ~zero =
  check_lblk t lblk;
  count k_bmap_alloc t;
  let fresh () =
    let b = alloc_block t in
    if zero then zero_fill_block t b;
    b
  in
  if lblk < Layout.ndirect then begin
    if ino.direct.(lblk) = 0 then begin
      ino.direct.(lblk) <- fresh ();
      ino.dirty <- true
    end;
    ino.direct.(lblk)
  end
  else begin
    let l = lblk - Layout.ndirect in
    if l < apb t then begin
      if ino.single = 0 then begin
        ino.single <- alloc_indirect t;
        ino.dirty <- true
      end;
      let v = indirect_get t ino.single l in
      if v <> 0 then v
      else begin
        let b = fresh () in
        indirect_set t ino.single l b;
        b
      end
    end
    else begin
      let l = l - apb t in
      if ino.double = 0 then begin
        ino.double <- alloc_indirect t;
        ino.dirty <- true
      end;
      let i1 = l / apb t and i2 = l mod apb t in
      let l1 =
        let v = indirect_get t ino.double i1 in
        if v <> 0 then v
        else begin
          let b = alloc_indirect t in
          indirect_set t ino.double i1 b;
          b
        end
      in
      let v = indirect_get t l1 i2 in
      if v <> 0 then v
      else begin
        let b = fresh () in
        indirect_set t l1 i2 b;
        b
      end
    end
  end

let blocks_of_size t size = (size + block_size t - 1) / block_size t

let block_list t (ino : Inode.t) =
  let n = blocks_of_size t ino.size in
  let rec go lblk acc =
    if lblk < 0 then acc
    else
      match bmap t ino lblk with
      | Some b -> go (lblk - 1) (b :: acc)
      | None -> go (lblk - 1) acc
  in
  go (n - 1) []

(* {1 File I/O} *)

let read t (ino : Inode.t) ~off ~len dst ~pos =
  if off < 0 || len < 0 || pos < 0 || pos + len > Bytes.length dst then
    err (Fs_error.Einval "read: bad range");
  if ino.ftype = Inode.Free then err Fs_error.Enoent;
  with_ilock ino (fun () ->
      let bs = block_size t in
      let len = Int.max 0 (Int.min len (ino.size - off)) in
      let rec go done_ =
        if done_ >= len then done_
        else begin
          let off = off + done_ in
          let lblk = off / bs and boff = off mod bs in
          let n = Int.min (bs - boff) (len - done_) in
          let sequential = ino.last_read_lblk = lblk - 1 in
          ino.last_read_lblk <- lblk;
          (match bmap t ino lblk with
           | None -> Bytes.fill dst (pos + done_) n '\000' (* hole *)
           | Some phys ->
             let ahead =
               if sequential then
                 match bmap t ino (lblk + 1) with Some a -> a | None -> -1
               else -1
             in
             let b =
               if ahead >= 0 then Cache.breada t.cache t.dev phys ~ahead
               else bread_checked t phys
             in
             (match b.Buf.b_error with
              | Some (Blkdev.Io_error msg) ->
                Cache.brelse t.cache b;
                err (Fs_error.Eio msg)
              | None -> ());
             Bytes.blit b.Buf.b_data boff dst (pos + done_) n;
             Cache.brelse t.cache b);
          go (done_ + n)
        end
      in
      let n = go 0 in
      count k_reads t;
      Stats.add (Stats.at t.stats k_bytes_read) n;
      n)

let write t (ino : Inode.t) ~off ~len src ~pos =
  if off < 0 || len < 0 || pos < 0 || pos + len > Bytes.length src then
    err (Fs_error.Einval "write: bad range");
  if ino.ftype = Inode.Free then err Fs_error.Enoent;
  with_ilock ino (fun () ->
      let bs = block_size t in
      let rec go done_ =
        if done_ >= len then ()
        else begin
          let off = off + done_ in
          let lblk = off / bs and boff = off mod bs in
          let n = Int.min (bs - boff) (len - done_) in
          let full_block = boff = 0 && n = bs in
          (* A full-block overwrite (or a write entirely beyond the old
             mapping) needs no read-modify-write and no zero fill. *)
          let was_mapped = bmap t ino lblk <> None in
          let phys = bmap_alloc t ino lblk ~zero:false in
          let fresh = full_block || not was_mapped in
          let b =
            if fresh then Cache.getblk t.cache t.dev phys
            else bread_checked t phys
          in
          (* A fresh block's old bytes are overwritten or zeroed. *)
          Cache.own t.cache b ~keep:(not fresh);
          if not full_block && fresh then
            Bytes.fill b.Buf.b_data 0 (Bytes.length b.Buf.b_data) '\000';
          Bytes.blit src (pos + done_) b.Buf.b_data boff n;
          Cache.bdwrite t.cache b;
          if off + n > ino.size then begin
            ino.size <- off + n;
            ino.dirty <- true
          end;
          go (done_ + n)
        end
      in
      go 0;
      count k_writes t;
      Stats.add (Stats.at t.stats k_bytes_written) len;
      len)

(* {1 Truncation and freeing} *)

let free_indirect t blkno ~keep_from ~level =
  (* Free entries >= keep_from in an indirect block (recursively for
     level 2); returns true when the whole block became empty. *)
  let rec go blkno keep_from level =
    let empty = ref true in
    for idx = 0 to apb t - 1 do
      let v = indirect_get t blkno idx in
      if v <> 0 then begin
        let child_keep =
          if level = 1 then if idx >= keep_from then 0 else -1
          else begin
            let lo = idx * apb t in
            if keep_from <= lo then 0
            else if keep_from >= lo + apb t then -1
            else keep_from - lo
          end
        in
        if child_keep >= 0 then
          if level = 1 then
            if idx >= keep_from then begin
              free_block t v;
              indirect_set t blkno idx 0
            end
            else empty := false
          else begin
            let child_empty = go v child_keep 1 in
            if child_empty && child_keep = 0 then begin
              free_block t v;
              indirect_set t blkno idx 0
            end
            else empty := false
          end
        else empty := false
      end
    done;
    !empty
  in
  go blkno keep_from level

let truncate t (ino : Inode.t) size =
  if size < 0 then err (Fs_error.Einval "truncate: negative size");
  if ino.ftype = Inode.Free then err Fs_error.Enoent;
  with_ilock ino (fun () ->
      let bs = block_size t in
      let keep = blocks_of_size t size in
      (* Shrinking into the middle of a block: the kept block's tail must
         read as zeroes if the file later grows past it again. *)
      (if size < ino.size && size mod bs <> 0 then
         match bmap t ino (size / bs) with
         | Some phys ->
           let b = bread_checked t phys in
           Cache.own t.cache b ~keep:true;
           Bytes.fill b.Buf.b_data (size mod bs) (bs - (size mod bs)) '\000';
           Cache.bdwrite t.cache b
         | None -> ());
      (* Direct blocks. *)
      for lblk = keep to Layout.ndirect - 1 do
        if ino.direct.(lblk) <> 0 then begin
          free_block t ino.direct.(lblk);
          ino.direct.(lblk) <- 0
        end
      done;
      (* Single indirect. *)
      (if ino.single <> 0 then begin
         let keep_from = Int.max 0 (keep - Layout.ndirect) in
         if keep_from < apb t then begin
           let empty = free_indirect t ino.single ~keep_from ~level:1 in
           if empty && keep_from = 0 then begin
             free_block t ino.single;
             ino.single <- 0
           end
         end
       end);
      (* Double indirect. *)
      (if ino.double <> 0 then begin
         let keep_from = Int.max 0 (keep - Layout.ndirect - apb t) in
         if keep_from < apb t * apb t then begin
           let empty = free_indirect t ino.double ~keep_from ~level:2 in
           if empty && keep_from = 0 then begin
             free_block t ino.double;
             ino.double <- 0
           end
         end
       end);
      ino.size <- Int.min ino.size size;
      if size > ino.size then ino.size <- size;
      ino.dirty <- true;
      count k_truncates t)

(* {1 Inode allocation} *)

let ialloc t ftype =
  let found = ref None in
  Array.iter
    (fun (ino : Inode.t) ->
      if !found = None && ino.ino <> 0 && ino.ftype = Inode.Free then
        found := Some ino)
    t.inodes;
  match !found with
  | Some ino ->
    Inode.reset ino ftype;
    t.meta_dirty <- true;
    ino
  | None -> err Fs_error.Enospc

let iget t ino_num =
  if ino_num <= 0 || ino_num >= Array.length t.inodes then
    err (Fs_error.Einval "bad inode number");
  t.inodes.(ino_num)

(* {1 Directories} *)

let dirent_count (dir : Inode.t) = dir.Inode.size / Layout.dirent_size

(* Read directory entry [idx]; (ino, name) with ino = 0 for a free
   slot. *)
let dirent_read t (dir : Inode.t) idx =
  let buf = Bytes.create Layout.dirent_size in
  let n =
    read t dir ~off:(idx * Layout.dirent_size) ~len:Layout.dirent_size buf
      ~pos:0
  in
  if n <> Layout.dirent_size then err (Fs_error.Eio "short directory read");
  let ino = Int32.to_int (Bytes.get_int32_le buf 0) in
  let name =
    let raw = Bytes.sub_string buf 4 (Layout.dirent_size - 4) in
    match String.index_opt raw '\000' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  (ino, name)

let dirent_write t (dir : Inode.t) idx ino_num name =
  let buf = Bytes.make Layout.dirent_size '\000' in
  Bytes.set_int32_le buf 0 (Int32.of_int ino_num);
  Bytes.blit_string name 0 buf 4 (String.length name);
  ignore
    (write t dir ~off:(idx * Layout.dirent_size) ~len:Layout.dirent_size buf
       ~pos:0)

let dir_scan t (dir : Inode.t) name =
  let n = dirent_count dir in
  let rec go idx free =
    if idx >= n then (None, free)
    else
      let ino, nm = dirent_read t dir idx in
      if ino = 0 then go (idx + 1) (if free = -1 then idx else free)
      else if nm = name then (Some (idx, ino), free)
      else go (idx + 1) free
  in
  go 0 (-1)

let check_name name =
  if String.length name = 0 then err (Fs_error.Einval "empty name");
  if String.length name > Layout.name_max then err Fs_error.Enametoolong;
  if String.contains name '/' then err (Fs_error.Einval "name contains '/'")

let dir_add t (dir : Inode.t) name ino_num =
  check_name name;
  match dir_scan t dir name with
  | Some _, _ -> err Fs_error.Eexist
  | None, free ->
    let idx = if free >= 0 then free else dirent_count dir in
    dirent_write t dir idx ino_num name

let dir_remove t (dir : Inode.t) name =
  match dir_scan t dir name with
  | Some (idx, ino), _ ->
    dirent_write t dir idx 0 "";
    ino
  | None, _ -> err Fs_error.Enoent

let dir_entries t (dir : Inode.t) =
  let n = dirent_count dir in
  let rec go idx acc =
    if idx >= n then List.rev acc
    else
      let ino, nm = dirent_read t dir idx in
      go (idx + 1) (if ino = 0 then acc else (nm, ino) :: acc)
  in
  go 0 []

let dir_is_empty t dir = dir_entries t dir = []

(* {1 Path resolution} *)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

let rec walk t (dir : Inode.t) components =
  match components with
  | [] -> dir
  | name :: rest ->
    if dir.Inode.ftype <> Inode.Directory then err Fs_error.Enotdir;
    (match dir_scan t dir name with
     | Some (_, ino_num), _ -> walk t (iget t ino_num) rest
     | None, _ -> err Fs_error.Enoent)

let lookup t path = walk t (iget t Layout.root_ino) (split_path path)

let lookup_parent t path =
  match List.rev (split_path path) with
  | [] -> err (Fs_error.Einval "path refers to the root")
  | name :: rev_parents ->
    let parent = walk t (iget t Layout.root_ino) (List.rev rev_parents) in
    if parent.Inode.ftype <> Inode.Directory then err Fs_error.Enotdir;
    (parent, name)

let create_node t path ftype =
  let parent, name = lookup_parent t path in
  check_name name;
  (match dir_scan t parent name with
   | Some _, _ -> err Fs_error.Eexist
   | None, _ -> ());
  let ino = ialloc t ftype in
  dir_add t parent name ino.Inode.ino;
  count k_creates t;
  ino

let create_file t path = create_node t path Inode.Regular

let mkdir t path = create_node t path Inode.Directory

let unlink t path =
  let parent, name = lookup_parent t path in
  let ino_num =
    match dir_scan t parent name with
    | Some (_, ino), _ -> ino
    | None, _ -> err Fs_error.Enoent
  in
  let ino = iget t ino_num in
  if ino.Inode.ftype = Inode.Directory && not (dir_is_empty t ino) then
    err Fs_error.Enotempty;
  ignore (dir_remove t parent name);
  ino.Inode.nlink <- ino.Inode.nlink - 1;
  if ino.Inode.nlink <= 0 then begin
    truncate t ino 0;
    ino.Inode.ftype <- Inode.Free;
    ino.Inode.dirty <- true
  end;
  t.meta_dirty <- true;
  count k_unlinks t

let link t existing fresh =
  let ino = lookup t existing in
  if ino.Inode.ftype = Inode.Directory then err Fs_error.Eisdir;
  let parent, name = lookup_parent t fresh in
  check_name name;
  (match dir_scan t parent name with
   | Some _, _ -> err Fs_error.Eexist
   | None, _ -> ());
  dir_add t parent name ino.Inode.ino;
  ino.Inode.nlink <- ino.Inode.nlink + 1;
  ino.Inode.dirty <- true;
  t.meta_dirty <- true;
  count k_links t

let rename t old_path new_path =
  let old_parent, old_name = lookup_parent t old_path in
  let ino_num =
    match dir_scan t old_parent old_name with
    | Some (_, ino), _ -> ino
    | None, _ -> err Fs_error.Enoent
  in
  let moving = iget t ino_num in
  let new_parent, new_name = lookup_parent t new_path in
  check_name new_name;
  (* A directory must not be moved into itself (we check the immediate
     case; deeper cycles cannot arise with our shallow path walks since
     the destination parent was resolved through the old tree). *)
  if
    moving.Inode.ftype = Inode.Directory
    && new_parent.Inode.ino = moving.Inode.ino
  then err (Fs_error.Einval "rename: directory into itself");
  match dir_scan t new_parent new_name with
  | Some (_, existing), _ when existing = ino_num ->
    (* Same file already carries the target name (e.g. via a hard
       link): POSIX says do nothing. *)
    ()
  | scan, _ ->
    (match scan with
     | Some (_, existing) ->
       let target = iget t existing in
       if target.Inode.ftype = Inode.Directory then err Fs_error.Eisdir
       else if moving.Inode.ftype = Inode.Directory then err Fs_error.Eexist
       else begin
         (* Replace the target, dropping its link. *)
         ignore (dir_remove t new_parent new_name);
         target.Inode.nlink <- target.Inode.nlink - 1;
         if target.Inode.nlink <= 0 then begin
           truncate t target 0;
           target.Inode.ftype <- Inode.Free;
           target.Inode.dirty <- true
         end
       end
     | None -> ());
    dir_add t new_parent new_name ino_num;
    ignore (dir_remove t old_parent old_name);
    t.meta_dirty <- true;
    count k_renames t

let readdir t path =
  let dir = lookup t path in
  if dir.Inode.ftype <> Inode.Directory then err Fs_error.Enotdir;
  dir_entries t dir

(* {1 Metadata persistence} *)

let write_metadata t =
  (* Superblock. *)
  let b = Cache.getblk t.cache t.dev 0 in
  Cache.own t.cache b ~keep:false;
  Layout.write_superblock t.sb b.Buf.b_data;
  Cache.bdwrite t.cache b;
  (* Bitmap. *)
  let bits = Alloc.to_bytes t.alloc in
  let bs = block_size t in
  for i = 0 to t.sb.Layout.sb_bitmap_blocks - 1 do
    let b = Cache.getblk t.cache t.dev (t.sb.Layout.sb_bitmap_start + i) in
    Cache.own t.cache b ~keep:false;
    Bytes.fill b.Buf.b_data 0 bs '\000';
    let off = i * bs in
    let n = Int.min bs (Bytes.length bits - off) in
    if n > 0 then Bytes.blit bits off b.Buf.b_data 0 n;
    Cache.bdwrite t.cache b
  done;
  (* Inode table. *)
  let per_block = bs / Layout.inode_size in
  for i = 0 to t.sb.Layout.sb_itable_blocks - 1 do
    let b = Cache.getblk t.cache t.dev (t.sb.Layout.sb_itable_start + i) in
    Cache.own t.cache b ~keep:false;
    Bytes.fill b.Buf.b_data 0 bs '\000';
    for j = 0 to per_block - 1 do
      let ino_num = (i * per_block) + j in
      if ino_num < Array.length t.inodes then
        Inode.serialize t.inodes.(ino_num) b.Buf.b_data (j * Layout.inode_size)
    done;
    Cache.bdwrite t.cache b
  done;
  Array.iter (fun (ino : Inode.t) -> ino.Inode.dirty <- false) t.inodes;
  t.meta_dirty <- false

let sync t =
  write_metadata t;
  Cache.flush_dev t.cache t.dev;
  count k_syncs t

let fsync t (ino : Inode.t) =
  with_ilock ino (fun () ->
      Cache.flush_blocks t.cache t.dev (block_list t ino));
  if ino.Inode.dirty || t.meta_dirty then write_metadata t;
  Cache.flush_dev t.cache t.dev;
  count k_fsyncs t

(* {1 mkfs / mount} *)

let mkfs ~cache dev ~ninodes =
  if Cache.block_size cache <> dev.Blkdev.dv_block_size then
    invalid_arg "Fs.mkfs: cache and device block sizes differ";
  let sb =
    Layout.layout ~block_size:dev.Blkdev.dv_block_size
      ~nblocks:dev.Blkdev.dv_nblocks ~ninodes
  in
  let alloc = Alloc.create ~nblocks:sb.Layout.sb_nblocks in
  for b = 0 to sb.Layout.sb_data_start - 1 do
    Alloc.set_allocated alloc b
  done;
  let inodes = Array.init ninodes (fun ino -> Inode.make ~ino) in
  let t =
    { dev; cache; sb; alloc; inodes; meta_dirty = true; stats = Stats.create () }
  in
  (* Root directory. *)
  let root = t.inodes.(Layout.root_ino) in
  Inode.reset root Inode.Directory;
  root.Inode.nlink <- 2;
  sync t;
  t

let mount ~cache dev =
  if Cache.block_size cache <> dev.Blkdev.dv_block_size then
    invalid_arg "Fs.mount: cache and device block sizes differ";
  let stats = Stats.create () in
  (* Superblock. *)
  let b = Cache.bread cache dev 0 in
  let sb = Layout.read_superblock ~block_size:dev.Blkdev.dv_block_size b.Buf.b_data in
  Cache.brelse cache b;
  if sb.Layout.sb_nblocks > dev.Blkdev.dv_nblocks then
    err (Fs_error.Einval "superblock: device shrank");
  (* Bitmap. *)
  let bs = sb.Layout.sb_block_size in
  let bits = Bytes.create (sb.Layout.sb_bitmap_blocks * bs) in
  for i = 0 to sb.Layout.sb_bitmap_blocks - 1 do
    let b = Cache.bread cache dev (sb.Layout.sb_bitmap_start + i) in
    Bytes.blit b.Buf.b_data 0 bits (i * bs) bs;
    Cache.brelse cache b
  done;
  let alloc = Alloc.of_bytes ~nblocks:sb.Layout.sb_nblocks bits in
  (* Inode table. *)
  let per_block = bs / Layout.inode_size in
  let inodes = Array.init sb.Layout.sb_ninodes (fun ino -> Inode.make ~ino) in
  for i = 0 to sb.Layout.sb_itable_blocks - 1 do
    let b = Cache.bread cache dev (sb.Layout.sb_itable_start + i) in
    for j = 0 to per_block - 1 do
      let ino_num = (i * per_block) + j in
      if ino_num < sb.Layout.sb_ninodes then
        inodes.(ino_num) <-
          Inode.deserialize ~ino:ino_num b.Buf.b_data (j * Layout.inode_size)
    done;
    Cache.brelse cache b
  done;
  { dev; cache; sb; alloc; inodes; meta_dirty = false; stats }

(* {1 fsck} *)

let fsck t =
  let problems = ref [] in
  let note fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let seen = Hashtbl.create 256 in
  let claim ~who blkno =
    if blkno < t.sb.Layout.sb_data_start || blkno >= t.sb.Layout.sb_nblocks then
      note "%s references out-of-range block %d" who blkno
    else begin
      (match Hashtbl.find_opt seen blkno with
       | Some other -> note "block %d claimed by both %s and %s" blkno other who
       | None -> Hashtbl.add seen blkno who);
      if not (Alloc.is_allocated t.alloc blkno) then
        note "%s references free block %d" who blkno
    end
  in
  Array.iter
    (fun (ino : Inode.t) ->
      if ino.Inode.ftype <> Inode.Free then begin
        let who = Printf.sprintf "ino%d" ino.Inode.ino in
        let mapped = blocks_of_size t ino.Inode.size in
        for lblk = 0 to mapped - 1 do
          match bmap t ino lblk with Some b -> claim ~who b | None -> ()
        done;
        if ino.Inode.single <> 0 then claim ~who ino.Inode.single;
        if ino.Inode.double <> 0 then begin
          claim ~who ino.Inode.double;
          for idx = 0 to apb t - 1 do
            let v = indirect_get t ino.Inode.double idx in
            if v <> 0 then claim ~who v
          done
        end;
        if ino.Inode.nlink <= 0 then
          note "ino%d live with nlink=%d" ino.Inode.ino ino.Inode.nlink
      end)
    t.inodes;
  List.rev !problems
