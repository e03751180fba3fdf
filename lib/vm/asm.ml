(* Assembler / disassembler for the filter VM's textual format. *)

exception Err of int * string

let err line fmt = Printf.ksprintf (fun m -> raise (Err (line, m))) fmt

let strip_comment s =
  match String.index_opt s ';' with
  | Some i -> String.sub s 0 i
  | None -> s

let tokens s =
  String.map (function ',' -> ' ' | c -> c) s
  |> String.split_on_char ' '
  |> List.filter (fun t -> t <> "")

let parse_int line tok =
  match int_of_string_opt tok with
  | Some k -> k
  | None -> err line "expected an integer, got %S" tok

let parse_reg line tok =
  let n = String.length tok in
  if n >= 2 && tok.[0] = 'r' then
    match int_of_string_opt (String.sub tok 1 (n - 1)) with
    | Some r -> r
    | None -> err line "expected a register, got %S" tok
  else err line "expected a register, got %S" tok

let parse_operand line tok : Vm.operand =
  let n = String.length tok in
  if n >= 2 && tok.[0] = 'r' then
    match int_of_string_opt (String.sub tok 1 (n - 1)) with
    | Some r -> Reg r
    | None -> err line "expected a register or integer, got %S" tok
  else
    match int_of_string_opt tok with
    | Some k -> Imm k
    | None -> err line "expected a register or integer, got %S" tok

(* One source line that assembles to an instruction, kept raw until
   labels are known. *)
type raw = { w_line : int; w_toks : string list }

let parse text =
  try
    let fuel = ref None in
    let scratch = ref 0 in
    let context = ref Vm.Edge in
    let raws = ref [] in
    let nraw = ref 0 in
    let labels = Hashtbl.create 8 in
    let directive line name args =
      match (name, args) with
      | "fuel", [ v ] -> fuel := Some (parse_int line v)
      | "scratch", [ v ] -> scratch := parse_int line v
      | "context", [ "edge" ] -> context := Vm.Edge
      | "context", [ "readonly" ] -> context := Vm.Readonly
      | "context", _ -> err line "context must be 'edge' or 'readonly'"
      | _, _ -> err line "%s takes one argument" name
    in
    String.split_on_char '\n' text
    |> List.iteri (fun i rawline ->
           let line = i + 1 in
           let toks = tokens (strip_comment rawline) in
           (* A leading [name:] labels the next instruction. *)
           let toks =
             match toks with
             | t :: rest when String.length t > 1 && t.[String.length t - 1] = ':'
               ->
               let name = String.sub t 0 (String.length t - 1) in
               if Hashtbl.mem labels name then
                 err line "duplicate label %S" name;
               Hashtbl.add labels name !nraw;
               rest
             | toks -> toks
           in
           match toks with
           | [] -> ()
           | ("fuel" | "scratch" | "context") :: args ->
             directive line (List.hd toks) args
           | toks ->
             raws := { w_line = line; w_toks = toks } :: !raws;
             incr nraw);
    let raws = Array.of_list (List.rev !raws) in
    let resolve line pc tok =
      match Hashtbl.find_opt labels tok with
      | Some target -> target - pc
      | None -> err line "unknown label %S" tok
    in
    let insn pc { w_line = line; w_toks } : Vm.insn =
      let reg = parse_reg line and op = parse_operand line in
      let imm = parse_int line and lbl = resolve line pc in
      match w_toks with
      | [ "mov"; a; b ] -> Mov (reg a, op b)
      | [ "add"; a; b ] -> Add (reg a, op b)
      | [ "sub"; a; b ] -> Sub (reg a, op b)
      | [ "mul"; a; b ] -> Mul (reg a, op b)
      | [ "div"; a; b ] -> Div (reg a, op b)
      | [ "rem"; a; b ] -> Rem (reg a, op b)
      | [ "and"; a; b ] -> And (reg a, op b)
      | [ "or"; a; b ] -> Or (reg a, op b)
      | [ "xor"; a; b ] -> Xor (reg a, op b)
      | [ "shl"; a; b ] -> Shl (reg a, op b)
      | [ "shr"; a; b ] -> Shr (reg a, op b)
      | [ "len"; a ] -> Len (reg a)
      | [ "blkno"; a ] -> Blkno (reg a)
      | [ "ldp"; a; b ] -> Ldp (reg a, op b)
      | [ "stp"; a; b ] -> Stp (op a, op b)
      | [ "lds"; a; b ] -> Lds (reg a, imm b)
      | [ "sts"; a; b ] -> Sts (imm a, op b)
      | [ "ldsx"; a; b ] -> Ldsx (reg a, reg b)
      | [ "stsx"; a; b ] -> Stsx (reg a, op b)
      | [ "jmp"; l ] -> Jmp (lbl l)
      | [ "jeq"; a; b; l ] -> Jeq (reg a, op b, lbl l)
      | [ "jne"; a; b; l ] -> Jne (reg a, op b, lbl l)
      | [ "jlt"; a; b; l ] -> Jlt (reg a, op b, lbl l)
      | [ "jge"; a; b; l ] -> Jge (reg a, op b, lbl l)
      | [ "loop"; a; b ] -> Loop (op a, imm b)
      | [ "end" ] -> End
      | [ "emit"; a; b ] -> Emit (op a, op b)
      | [ "drop" ] -> Drop
      | [ "redirect"; a ] -> Redirect (op a)
      | [ "ret" ] -> Ret
      | m :: _ -> err line "unknown or malformed instruction %S" m
      | [] -> assert false
    in
    let s_insns = Array.mapi insn raws in
    match !fuel with
    | None -> Error "missing 'fuel' directive"
    | Some s_fuel ->
      Ok
        {
          Vm.s_insns;
          s_fuel;
          s_scratch = !scratch;
          s_context = !context;
        }
  with Err (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)

let load text =
  match parse text with
  | Error _ as e -> e
  | Ok spec -> (
    match Vm.verify spec with
    | Ok p -> Ok p
    | Error d -> Error (Vm.diag_to_string d))

(* {1 Disassembler} *)

let operand = function
  | Vm.Reg r -> Printf.sprintf "r%d" r
  | Vm.Imm k -> string_of_int k

(* One instruction as text, each jump target named by [target]. *)
let format ~target ~pc (i : Vm.insn) =
  let two m a b = Printf.sprintf "%s %s, %s" m a b in
  let jump m r o off =
    Printf.sprintf "%s r%d, %s, %s" m r (operand o) (target (pc + off))
  in
  match i with
  | Mov (r, o) -> two "mov" (operand (Reg r)) (operand o)
  | Add (r, o) -> two "add" (operand (Reg r)) (operand o)
  | Sub (r, o) -> two "sub" (operand (Reg r)) (operand o)
  | Mul (r, o) -> two "mul" (operand (Reg r)) (operand o)
  | Div (r, o) -> two "div" (operand (Reg r)) (operand o)
  | Rem (r, o) -> two "rem" (operand (Reg r)) (operand o)
  | And (r, o) -> two "and" (operand (Reg r)) (operand o)
  | Or (r, o) -> two "or" (operand (Reg r)) (operand o)
  | Xor (r, o) -> two "xor" (operand (Reg r)) (operand o)
  | Shl (r, o) -> two "shl" (operand (Reg r)) (operand o)
  | Shr (r, o) -> two "shr" (operand (Reg r)) (operand o)
  | Len r -> Printf.sprintf "len r%d" r
  | Blkno r -> Printf.sprintf "blkno r%d" r
  | Ldp (r, o) -> two "ldp" (operand (Reg r)) (operand o)
  | Stp (a, b) -> two "stp" (operand a) (operand b)
  | Lds (r, off) -> two "lds" (operand (Reg r)) (string_of_int off)
  | Sts (off, o) -> two "sts" (string_of_int off) (operand o)
  | Ldsx (r, ri) -> two "ldsx" (operand (Reg r)) (operand (Reg ri))
  | Stsx (ri, o) -> two "stsx" (operand (Reg ri)) (operand o)
  | Jmp off -> "jmp " ^ target (pc + off)
  | Jeq (r, o, off) -> jump "jeq" r o off
  | Jne (r, o, off) -> jump "jne" r o off
  | Jlt (r, o, off) -> jump "jlt" r o off
  | Jge (r, o, off) -> jump "jge" r o off
  | Loop (o, cap) -> two "loop" (operand o) (string_of_int cap)
  | End -> "end"
  | Emit (a, b) -> two "emit" (operand a) (operand b)
  | Drop -> "drop"
  | Redirect o -> Printf.sprintf "redirect %s" (operand o)
  | Ret -> "ret"

let insn_to_string = format ~target:(Printf.sprintf "-> %d")

let print p =
  let code = Vm.insns p in
  let n = Array.length code in
  (* Name every jump target so offsets survive the round trip. *)
  let targets = Hashtbl.create 8 in
  Array.iteri
    (fun pc insn ->
      match (insn : Vm.insn) with
      | Jmp off | Jeq (_, _, off) | Jne (_, _, off) | Jlt (_, _, off)
      | Jge (_, _, off) ->
        Hashtbl.replace targets (pc + off) ()
      | _ -> ())
    code;
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "fuel %d" (Vm.fuel p);
  if Vm.scratch_cells p > 0 then line "scratch %d" (Vm.scratch_cells p);
  if Vm.prog_context p = Vm.Readonly then line "context readonly";
  let lbl = Printf.sprintf "L%d" in
  for pc = 0 to n do
    if Hashtbl.mem targets pc then line "%s:" (lbl pc);
    if pc < n then line "    %s" (format ~target:lbl ~pc code.(pc))
  done;
  Buffer.contents buf
