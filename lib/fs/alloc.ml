type t = {
  bits : Bytes.t;
  n : int;
  mutable cursor : int;
  mutable used : int;
}

let bytes_needed n = (n + 7) / 8

let create ~nblocks =
  if nblocks <= 0 then invalid_arg "Alloc.create";
  { bits = Bytes.make (bytes_needed nblocks) '\000'; n = nblocks; cursor = 0; used = 0 }

let of_bytes ~nblocks b =
  if Bytes.length b < bytes_needed nblocks then invalid_arg "Alloc.of_bytes: short";
  let t =
    {
      bits = Bytes.sub b 0 (bytes_needed nblocks);
      n = nblocks;
      cursor = 0;
      used = 0;
    }
  in
  let used = ref 0 in
  for i = 0 to nblocks - 1 do
    if Char.code (Bytes.get t.bits (i / 8)) land (1 lsl (i mod 8)) <> 0 then
      incr used
  done;
  t.used <- !used;
  t

let to_bytes t = Bytes.copy t.bits

let check t i = if i < 0 || i >= t.n then invalid_arg "Alloc: block out of range"

let is_allocated t i =
  check t i;
  Char.code (Bytes.get t.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

let set_bit t i v =
  let byte = Char.code (Bytes.get t.bits (i / 8)) in
  let mask = 1 lsl (i mod 8) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.bits (i / 8) (Char.chr byte)

let set_allocated t i =
  if is_allocated t i then invalid_arg "Alloc.set_allocated: already allocated";
  set_bit t i true;
  t.used <- t.used + 1

let alloc t =
  if t.used >= t.n then None
  else begin
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < t.n do
      let cand = (t.cursor + !i) mod t.n in
      if not (is_allocated t cand) then found := Some cand;
      incr i
    done;
    match !found with
    | Some b ->
      set_bit t b true;
      t.used <- t.used + 1;
      t.cursor <- (b + 1) mod t.n;
      Some b
    | None -> None
  end

let free t i =
  if not (is_allocated t i) then invalid_arg "Alloc.free: double free";
  set_bit t i false;
  t.used <- t.used - 1

let free_count t = t.n - t.used
