type event = { ev_time : Time.t; ev_seq : int; ev_cat : string; ev_msg : string }

type t = {
  capacity : int;
  clock : unit -> Time.t;
  ring : event option array;
  mutable next : int; (* total recorded; ring slot = next mod capacity *)
  mutable all : bool;
  mutable cats : string list;  (* enabled one by one: a short list *)
}

let create ?(capacity = 4096) ~clock () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  {
    capacity;
    clock;
    ring = Array.make capacity None;
    next = 0;
    all = false;
    cats = [];
  }

let enable t cat = if not (List.mem cat t.cats) then t.cats <- cat :: t.cats

let enable_all t = t.all <- true

let disable t cat = t.cats <- List.filter (fun c -> c <> cat) t.cats

let disable_all t =
  t.all <- false;
  t.cats <- []

let enabled t cat = t.all || List.mem cat t.cats

let emit t ~cat msg =
  if enabled t cat then begin
    let ev =
      { ev_time = t.clock (); ev_seq = t.next; ev_cat = cat; ev_msg = msg () }
    in
    t.ring.(t.next mod t.capacity) <- Some ev;
    t.next <- t.next + 1
  end

let events t =
  let start = max 0 (t.next - t.capacity) in
  let out = ref [] in
  for i = t.next - 1 downto start do
    match t.ring.(i mod t.capacity) with
    | Some ev when ev.ev_seq = i -> out := ev :: !out
    | Some _ | None -> ()
  done;
  !out

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0

let recorded t = t.next

let dropped t = max 0 (t.next - t.capacity)

let pp_event fmt ev =
  Format.fprintf fmt "[%a] %-8s %s" Time.pp ev.ev_time ev.ev_cat ev.ev_msg

let dump fmt t =
  List.iter (fun ev -> Format.fprintf fmt "%a@." pp_event ev) (events t)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_json ev =
  Printf.sprintf "{\"t_us\":%.1f,\"seq\":%d,\"cat\":\"%s\",\"msg\":\"%s\"}"
    (Time.to_us_f ev.ev_time) ev.ev_seq (json_escape ev.ev_cat)
    (json_escape ev.ev_msg)

let dump_json fmt t =
  List.iter (fun ev -> Format.fprintf fmt "%s@." (event_json ev)) (events t)
