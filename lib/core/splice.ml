open Kpath_sim
open Kpath_dev
open Kpath_buf
open Kpath_fs
open Kpath_net
open Kpath_proc

let k_writes_issued = Stats.key "splice.writes_issued"
let k_started = Stats.key "splice.started"
let k_dgrams_forwarded = Stats.key "splice.dgrams_forwarded"
let k_dgram_drops = Stats.key "splice.dgram_drops"
let k_frames_forwarded = Stats.key "splice.frames_forwarded"
let k_overruns = Stats.key "splice.overruns"
let k_completed = Stats.key "splice.completed"
let k_aborted = Stats.key "splice.aborted"

type ctx = {
  engine : Engine.t;
  callout : Callout.t;
  cache : Cache.t;
  intr : service:Time.span -> (unit -> unit) -> unit;
  handler_cost : Time.span;
  stats : Stats.t;
  trace : Trace.t option;
  mutable next_id : int;
}

let make_ctx ~engine ~callout ~cache ~intr ~handler_cost ?trace () =
  {
    engine;
    callout;
    cache;
    intr;
    handler_cost;
    stats = Stats.create ();
    trace;
    next_id = 1;
  }

let emit ctx ~cat msg =
  match ctx.trace with Some t -> Trace.emit t ~cat msg | None -> ()

let ctx_stats ctx = ctx.stats

let fresh_id ctx =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  id

let count ctx k = Stats.incr (Stats.at ctx.stats k)

(* Charge one handler activation to the CPU (interrupt bucket). *)
let charge ctx = ctx.intr ~service:ctx.handler_cost (fun () -> ())

type state = Running | Completed | Aborted of string

module Life = struct
  type 'a t = {
    mutable st : state;
    mutable finalized : bool;
    mutable callbacks : ('a -> unit) list;
  }

  let finalize ctx ~cat ~completed ~aborted life x describe =
    if not life.finalized then begin
      life.finalized <- true;
      emit ctx ~cat (fun () ->
          describe
            (match life.st with
             | Completed -> "completed"
             | Aborted r -> "aborted: " ^ r
             | Running -> "finalized while running!?"));
      count ctx
        (match life.st with
         | Completed -> completed
         | Aborted _ -> aborted
         | Running -> assert false);
      let cbs = List.rev life.callbacks in
      life.callbacks <- [];
      List.iter (fun cb -> cb x) cbs
    end

  let on_complete life x cb =
    if life.finalized then cb x else life.callbacks <- cb :: life.callbacks

  let[@kpath.blocks] wait ~cat life result =
    if not life.finalized then
      Process.block cat (fun waker ->
          life.callbacks <- (fun _ -> waker ()) :: life.callbacks);
    match life.st with
    | Completed -> Ok (result ())
    | Aborted reason -> Error reason
    | Running -> assert false
end

let eof = -1

type dgram_pump = {
  dg_src : Udp.t;
  dg_sink : [ `Socket of Udp.t * Udp.addr | `Chardev of Chardev.t ];
}

type frame_pump = { fr_src : Framebuffer.t; fr_sock : Udp.t; fr_dst : Udp.addr; fr_mtu : int }

(* Recording: an input character device streams into a file. The
   destination blocks are preallocated at setup (process context, may
   sleep); the interrupt-context upcall only stages bytes and issues
   asynchronous writes through bare headers, dropping input (an
   overrun) when too many writes are already in flight. *)
type stream_pump = {
  sp_sink : Endpoint.sink;
  sp_map : int array;
  mutable sp_next : int; (* destination block being staged *)
  mutable staged : Bytes.t;
  mutable staged_len : int;
  sp_mic : Micdev.t;
}

type kind =
  | Dgram_pump of dgram_pump
  | Frame_pump of frame_pump
  | Stream_pump of stream_pump

type t = {
  sd_id : int;
  ctx : ctx;
  config : Flowctl.config;
  total : int;
  block_size : int;
  mutable moved : int;
  life : t Life.t;
  mutable writes : int;  (* recording: pending block writes *)
  mutable overruns : int;  (* recording: bytes dropped *)
  kind : kind;
}

let state t = t.life.Life.st

let bytes_moved t = t.moved

let total_bytes t = t.total

let pending_writes t = t.writes

let overruns t = t.overruns

let release_source t =
  match t.kind with
  | Dgram_pump p -> Udp.set_upcall p.dg_src None
  | Stream_pump p -> Micdev.set_consumer p.sp_mic None
  | Frame_pump _ -> ()

let finalize t =
  if not t.life.Life.finalized then release_source t;
  Life.finalize t.ctx ~cat:"splice" ~completed:k_completed ~aborted:k_aborted
    t.life t (fun outcome ->
      Printf.sprintf "sd%d %s (%d bytes moved)" t.sd_id outcome t.moved)

let on_complete t cb = Life.on_complete t.life t cb

let[@kpath.blocks] wait t = Life.wait ~cat:"splice" t.life (fun () -> t.moved)

(* Finalize once the transfer has settled: every byte moved, or aborted
   with no write left in flight. *)
let[@kpath.intr] settle t =
  match state t with
  | Running ->
    if t.moved >= t.total then begin
      t.life.Life.st <- Completed;
      finalize t
    end
  | Aborted _ -> if t.writes = 0 then finalize t
  | Completed -> ()

let[@kpath.intr] abort t ~reason =
  if state t = Running then t.life.Life.st <- Aborted reason;
  settle t

let release t =
  if state t <> Running then release_source t
  else invalid_arg "Splice.release: still running"

(* {1 Setup} *)

let make_desc ctx ~config ~total ~block_size kind =
  let sd_id = fresh_id ctx in
  count ctx k_started;
  emit ctx ~cat:"splice" (fun () ->
      Printf.sprintf "sd%d started (%d bytes)" sd_id total);
  {
    sd_id;
    ctx;
    config;
    total;
    block_size;
    moved = 0;
    life = { Life.st = Running; finalized = false; callbacks = [] };
    writes = 0;
    overruns = 0;
    kind;
  }

let start_dgram_pump ctx ~config ~src_sock ~sink ~size =
  let total = if size = eof then max_int else size in
  if total < 0 then invalid_arg "Splice.start: negative size";
  let dg_sink =
    match sink with
    | Endpoint.Dst_socket { sock; dst } -> `Socket (sock, dst)
    | Endpoint.Dst_chardev cd -> `Chardev cd
    | Endpoint.Dst_file _ | Endpoint.Dst_tcp _ ->
      invalid_arg "Splice.start: unsupported datagram-source sink"
  in
  let pump = { dg_src = src_sock; dg_sink } in
  let t = make_desc ctx ~config ~total ~block_size:0 (Dgram_pump pump) in
  if total = 0 then settle t
  else
    Udp.set_upcall src_sock
      (Some
         (fun dg ->
           if state t = Running then begin
             charge ctx;
             let len = Bytes.length dg.Udp.d_payload in
             (match pump.dg_sink with
              | `Socket (out, dst) -> Udp.sendto out ~dst dg.Udp.d_payload
              | `Chardev cd ->
                let n = Chardev.try_write cd dg.Udp.d_payload 0 len in
                if n < len then count ctx k_dgram_drops);
             t.moved <- t.moved + len;
             count ctx k_dgrams_forwarded;
             settle t
           end));
  t

let start_frame_pump ctx ~config ~fb ~sock ~dst ~size =
  let total = if size = eof then max_int else size in
  if total < 0 then invalid_arg "Splice.start: negative size";
  let mtu = 8192 in
  let pump = { fr_src = fb; fr_sock = sock; fr_dst = dst; fr_mtu = mtu } in
  let t = make_desc ctx ~config ~total ~block_size:0 (Frame_pump pump) in
  let rec loop () =
    Framebuffer.next_frame fb (fun ~seq:_ frame ->
        if state t = Running then begin
          charge ctx;
          let len = Bytes.length frame in
          let rec send off =
            if off < len then begin
              let n = Int.min pump.fr_mtu (len - off) in
              Udp.sendto pump.fr_sock ~dst:pump.fr_dst (Bytes.sub frame off n);
              send (off + n)
            end
          in
          send 0;
          t.moved <- t.moved + len;
          count ctx k_frames_forwarded;
          if t.moved >= t.total then settle t else loop ()
        end)
  in
  if total = 0 then settle t else loop ();
  t

(* {1 Stream (recording) pump} *)

(* The staged area goes to the sink as it is, and the next block is
   staged in a fresh one: a file's store keeps the area itself. *)
let[@kpath.intr] stream_flush_block t (p : stream_pump) =
  let lblk = p.sp_next and data = p.staged and written = p.staged_len in
  p.sp_next <- lblk + 1;
  p.staged <- Bytes.create t.block_size;
  p.staged_len <- 0;
  t.writes <- t.writes + 1;
  count t.ctx k_writes_issued;
  Endpoint.write t.ctx.cache p.sp_sink ~map:p.sp_map ~lblk [| data |]
    ~len:written (fun err ->
      charge t.ctx;
      t.writes <- t.writes - 1;
      match err with
      | Some reason -> abort t ~reason
      | None ->
        if state t = Running then t.moved <- t.moved + written;
        settle t)

(* Interrupt-context chunk arrival from the device. *)
let[@kpath.intr] stream_on_chunk t (p : stream_pump) data =
  if state t = Running then begin
    charge t.ctx;
    let len = Bytes.length data in
    let rec consume off =
      if off < len && state t = Running && p.sp_next < Array.length p.sp_map
      then begin
        let block_target =
          Int.min t.block_size (t.total - (p.sp_next * t.block_size))
        in
        let want = Int.min (block_target - p.staged_len) (len - off) in
        Bytes.blit data off p.staged p.staged_len want;
        p.staged_len <- p.staged_len + want;
        if p.staged_len >= block_target then begin
          if t.writes >= t.config.Flowctl.write_hi then begin
            (* Overrun: the sink cannot keep up; drop this block's worth
               of samples and re-stage the slot. *)
            t.overruns <- t.overruns + p.staged_len;
            count t.ctx k_overruns;
            p.staged_len <- 0
          end
          else stream_flush_block t p
        end;
        consume (off + want)
      end
    in
    consume 0
  end

let start_stream_pump ctx ~config ~mic ~sink ~size =
  if size = eof || size <= 0 then
    Fs_error.raise_err
      (Fs_error.Einval "splice: device capture requires a bounded size");
  match sink with
  | Endpoint.Dst_file { fs; ino; off_blocks } ->
    let block_size = Fs.block_size fs in
    let nblocks = (size + block_size - 1) / block_size in
    let sp_map = Endpoint.sink_map fs ino ~off_blocks ~nblocks ~total:size in
    let pump =
      {
        sp_sink = sink;
        sp_map;
        sp_next = 0;
        staged = Bytes.create block_size;
        staged_len = 0;
        sp_mic = mic;
      }
    in
    let t = make_desc ctx ~config ~total:size ~block_size (Stream_pump pump) in
    Micdev.set_consumer mic (Some (fun data -> stream_on_chunk t pump data));
    t
  | Endpoint.Dst_socket _ | Endpoint.Dst_tcp _ | Endpoint.Dst_chardev _ ->
    invalid_arg "Splice.start: device capture requires a file sink"

let start ctx ~src ~dst ?(config = Flowctl.default) ~size () =
  match src with
  | Endpoint.Src_file _ ->
    invalid_arg "Splice.start: a file source runs as a splice graph"
  | Endpoint.Src_socket sock -> start_dgram_pump ctx ~config ~src_sock:sock ~sink:dst ~size
  | Endpoint.Src_mic mic -> start_stream_pump ctx ~config ~mic ~sink:dst ~size
  | Endpoint.Src_framebuffer fb -> (
    match dst with
    | Endpoint.Dst_socket { sock; dst } -> start_frame_pump ctx ~config ~fb ~sock ~dst ~size
    | Endpoint.Dst_file _ | Endpoint.Dst_chardev _ | Endpoint.Dst_tcp _ ->
      invalid_arg "Splice.start: framebuffer source requires a socket sink")
