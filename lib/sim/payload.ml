(* A refcounted immutable byte buffer shared by many readers.

   The splice graph aliases one device block to N edges under
   Cache.pin/unpin; a payload extends that discipline past the cache
   boundary, so N TCP connections can reference one copy of a block's
   bytes (each segment carrying an offset+length view) instead of each
   holding a private copy. The buffer is immutable by convention:
   holders read through [data] and must never write.

   Refcounting is manual and fail-fast — [release] below zero and
   [retain] after the last release both raise, and [frees] lets tests
   assert the free-exactly-once invariant directly. *)

type t = {
  p_data : bytes;
  mutable p_refs : int;
  mutable p_frees : int;
}

(* The distinguished empty payload: permanently live, never freed.
   Pooled frames and chunk records point here when they carry no view,
   so "no payload" needs no [option] box on hot paths. *)
let none =
  { p_data = Bytes.empty; p_refs = 1; p_frees = 0 }

let of_bytes b =
  { p_data = b; p_refs = 1; p_frees = 0 }

let data p = p.p_data

let length p = Bytes.length p.p_data

let refs p = p.p_refs

let frees p = p.p_frees

let is_none p = p == none

let retain p =
  if p != none then begin
    if p.p_refs <= 0 then invalid_arg "Payload.retain: already freed";
    p.p_refs <- p.p_refs + 1
  end

let release p =
  if p != none then begin
    if p.p_refs <= 0 then invalid_arg "Payload.release: already freed";
    p.p_refs <- p.p_refs - 1;
    if p.p_refs = 0 then p.p_frees <- p.p_frees + 1
  end
