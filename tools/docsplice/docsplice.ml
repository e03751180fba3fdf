(* docsplice: regenerate the bench tables a document quotes.

   Usage: bench/main.exe all | docsplice DOC

   Prints DOC with every block from a line "<!-- bench: PREFIX -->" to
   a line "<!-- end bench -->" rewritten as a code fence quoting the
   one section of the bench output on stdin whose title starts with
   PREFIX. The sections are the preamble, titled by its first line, and
   one per header: a blank line, a rule, the title and a rule. Fails on
   a marker that matches no section or more than one, and on a section
   that is not quoted exactly once. *)

let fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("docsplice: " ^ msg); exit 1) fmt

let lines ic = String.split_on_char '\n' (In_channel.input_all ic)

let is_rule l = l <> "" && String.for_all (( = ) '-') l

let rec drop_blanks = function "" :: l -> drop_blanks l | l -> l

(* Each section is its title followed by its body, blank tail dropped. *)
let sections output =
  let close rev_cur acc = List.rev (drop_blanks rev_cur) :: acc in
  let rec go acc rev_cur = function
    | "" :: r1 :: title :: r2 :: rest when is_rule r1 && is_rule r2 ->
      go (close rev_cur acc) [ title ] rest
    | l :: rest -> go acc (l :: rev_cur) rest
    | [] -> List.rev (close rev_cur acc)
  in
  List.filter (( <> ) []) (go [] [] output)

let opening = "<!-- bench:" and closing = "-->"

let ending = "<!-- end bench -->"

let () =
  if Array.length Sys.argv <> 2 then
    fail "usage: bench/main.exe all | docsplice DOC";
  let secs = sections (lines stdin) in
  let quoted = ref [] in
  let quote prefix =
    let titled s = String.starts_with ~prefix (List.hd s) in
    match List.filter titled secs with
    | [ s ] ->
      quoted := s :: !quoted;
      ("```" :: s) @ [ "```" ]
    | [] -> fail "no section's title starts with %S" prefix
    | _ -> fail "more than one section's title starts with %S" prefix
  in
  let rec splice = function
    | l :: rest
      when String.starts_with ~prefix:opening l
           && String.ends_with ~suffix:closing l ->
      let n = String.(length l - length opening - length closing) in
      let prefix = String.(trim (sub l (length opening) n)) in
      let rec skip = function
        | e :: rest when e = ending -> rest
        | _ :: rest -> skip rest
        | [] -> fail "no end marker after %S" l
      in
      (l :: quote prefix) @ (ending :: splice (skip rest))
    | l :: rest -> l :: splice rest
    | [] -> []
  in
  let out = splice (In_channel.with_open_text Sys.argv.(1) lines) in
  List.iter
    (fun s ->
      match List.length (List.filter (( == ) s) !quoted) with
      | 1 -> ()
      | n -> fail "%S is quoted %d times" (List.hd s) n)
    secs;
  print_string (String.concat "\n" out)
