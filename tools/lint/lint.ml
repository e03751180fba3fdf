(* kpath-verify: a BPF-verifier-style static analysis pass over the
   .cmt typedtrees dune produces for every module under lib/.

   The paper's contribution lives in kernel context: splice runs as
   B_CALL/b_iodone completion handlers chained off interrupts, where
   sleeping is forbidden and every buffer header acquired from the
   cache must be released exactly once. This checker proves those
   disciplines statically, the way the BPF verifier proves in-kernel
   handlers safe before they are allowed to run:

   - {b interrupt-context blocking} (rule [intr-blocks]): an
     inter-module call graph is built from every value binding; a
     function annotated [[@kpath.intr]] (a completion handler) must not
     reach a function annotated [[@kpath.blocks]] (biowait, process
     sleep) on any path. The offending call chain is reported.

   - {b buffer lifecycle} (rules [buf-leak], [buf-double-release]): an
     intra-procedural abstract interpretation checks that a buffer
     acquired via [bread]/[breadn]/[getblk] flows to exactly one of
     [brelse]/[bawrite]/[bdwrite]/[bwrite]/[release_hdr] on every path.
     Ownership handed elsewhere (stored, passed on, returned) leaves
     the checkable region and is accepted; [[@kpath.transfers]] makes
     the hand-off explicit, and on a function definition marks it as an
     acquire wrapper whose callers are tracked in turn.

   - {b determinism} (rules [rng], [wallclock], [poly-compare],
     [hashtbl-order]): [Random.*] is forbidden outside [lib/sim/rng],
     wall-clock primitives are forbidden everywhere, polymorphic
     [compare]/[Hashtbl.hash] must be instantiated at immutable base
     types, structural [=]/[<>]/[List.mem] must not be instantiated at
     a closure-carrying variant (comparing a functional constructor
     raises at run time), and every [iter]/[fold] over a hash table —
     [Hashtbl]'s own or one built by [Hashtbl.Make] — must either feed
     directly into a [List.sort] (the sorted-fold idiom) or carry a
     justified [[@kpath.nolint "hashtbl-order: ..."]] escape.

   - {b sealed block areas} (rule [sealed-write]): a buffer's data area
     may be sealed, shared by reference with a device store or a
     payload view, so every writer of [b_data] calls [Cache.own] on the
     buffer first. A write into [e.Buf.b_data] (the destination of a
     [Bytes] mutator, [Layout.write_superblock] or [Inode.serialize])
     is reported unless the same top-level function calls [Cache.own]
     on the same buffer expression [e] earlier in its text.

   Escapes: [[@kpath.nolint "<rule>: <justification>"]] on a binding or
   a parenthesized expression suppresses the named rule underneath it;
   a missing or malformed justification is itself a finding
   ([bad-annotation]). *)

(* {1 Findings} *)

type finding = {
  rule : string;
  file : string;
  line : int;
  msg : string;
}

let finding ~rule ~loc msg =
  let pos = loc.Location.loc_start in
  { rule; file = pos.Lexing.pos_fname; line = pos.Lexing.pos_lnum; msg }

let compare_findings a b =
  compare (a.file, a.line, a.rule, a.msg) (b.file, b.line, b.rule, b.msg)

let rules =
  [
    "intr-blocks";
    "buf-leak";
    "buf-double-release";
    "rng";
    "wallclock";
    "poly-compare";
    "hashtbl-order";
    "sealed-write";
  ]

(* Rule families accepted by [@kpath.nolint] as shorthands. *)
let family = function
  | "lifecycle" -> [ "buf-leak"; "buf-double-release" ]
  | "determinism" -> [ "rng"; "wallclock"; "poly-compare"; "hashtbl-order" ]
  | "intr" -> [ "intr-blocks" ]
  | r -> [ r ]

(* {1 Annotation vocabulary} *)

type annots = {
  a_intr : bool;
  a_blocks : bool;
  a_transfers : bool;
  a_nolint : string list;  (* suppressed rule names, families expanded *)
}

let no_annots =
  {
    a_intr = false;
    a_blocks = false;
    a_transfers = false;
    a_nolint = [];
  }

let payload_string (p : Parsetree.payload) =
  match p with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

(* Parse the kpath.* attributes on [attrs]; malformed ones are reported
   through [bad]. *)
let parse_annots ~bad (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (a : Parsetree.attribute) ->
      let name = a.attr_name.txt in
      if String.length name <= 6 || String.sub name 0 6 <> "kpath." then acc
      else
        match String.sub name 6 (String.length name - 6) with
        | "intr" -> { acc with a_intr = true }
        | "blocks" -> { acc with a_blocks = true }
        | "transfers" -> { acc with a_transfers = true }
        | "nolint" -> (
          match payload_string a.attr_payload with
          | None ->
            bad a.attr_loc "[@kpath.nolint] requires a payload string";
            acc
          | Some s -> (
            match String.index_opt s ':' with
            | None ->
              bad a.attr_loc
                (Printf.sprintf
                   "[@kpath.nolint %S] must be \"<rule>: <justification>\"" s)
            ;
              acc
            | Some i ->
              let r = String.trim (String.sub s 0 i) in
              let just =
                String.trim (String.sub s (i + 1) (String.length s - i - 1))
              in
              if
                not
                  (List.mem r rules
                  || List.mem r [ "lifecycle"; "determinism"; "intr" ])
              then begin
                bad a.attr_loc
                  (Printf.sprintf "[@kpath.nolint]: unknown rule %S" r);
                acc
              end
              else if just = "" then begin
                bad a.attr_loc
                  (Printf.sprintf
                     "[@kpath.nolint %S]: empty justification" s);
                acc
              end
              else { acc with a_nolint = family r @ acc.a_nolint }))
        | other ->
          bad a.attr_loc
            (Printf.sprintf "unknown annotation [@kpath.%s]" other);
          acc)
    no_annots attrs

let suppresses annots rule = List.mem rule annots.a_nolint

(* {1 Name normalization}

   Paths in the typedtree reflect how the source spelled an access
   ([Cache.biowait], [Kpath_buf__Cache.biowait], [Stdlib.Random.int]
   ...). Normalize to the last two components with dune's [lib__Module]
   mangling stripped, so every spelling of a function agrees on one
   key: ["Cache.biowait"], ["Random.int"], ["compare"]. *)

let strip_mangle s =
  match String.rindex_opt s '_' with
  | Some i when i > 0 && s.[i - 1] = '_' ->
    let tail = String.sub s (i + 1) (String.length s - i - 1) in
    if tail = "" then s else String.capitalize_ascii tail
  | _ -> s

let rec path_components (p : Path.t) =
  match p with
  | Path.Pident id -> [ strip_mangle (Ident.name id) ]
  | Path.Pdot (p, s) -> path_components p @ [ strip_mangle s ]
  | Path.Papply (p, _) -> path_components p
  | Path.Pextra_ty (p, _) -> path_components p

let normalize_components comps =
  match comps with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | comps -> comps

let key_of_components comps =
  match List.rev comps with
  | [] -> ""
  | [ x ] -> x
  | v :: m :: _ -> m ^ "." ^ v

let key_of_path p = key_of_components (normalize_components (path_components p))

let head_component p =
  match normalize_components (path_components p) with [] -> "" | h :: _ -> h

(* {1 The program model}

   One node per value binding (top-level, or nested when annotated),
   with its annotations and the set of global references in its body. *)

type node = {
  n_key : string;  (* "Cache.biowait" *)
  n_loc : Location.t;
  n_annots : annots;
  mutable n_refs : (string * Location.t) list;  (* callee key, site *)
}

type modl = {
  m_name : string;  (* "Cache" *)
  m_file : string;  (* "lib/buf/cache.ml" *)
  m_str : Typedtree.structure;
  (* Ident unique_name -> node key, for resolving same-module [Pident] refs. *)
  m_stamps : (string, string) Hashtbl.t;
}

type program = {
  nodes : (string, node) Hashtbl.t;
  mutable modls : modl list;
  mutable findings : finding list;
}

let add_finding prog f = prog.findings <- f :: prog.findings

let bad_annot prog loc msg =
  add_finding prog (finding ~rule:"bad-annotation" ~loc msg)

(* {2 Collection} *)

let binding_name (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Typedtree.Tpat_var (id, { txt; _ }) -> Some (id, txt)
  | _ -> None

(* Walk one module: create nodes for top-level bindings (and nested
   annotated ones), recording every value reference under each node the
   source position sits in. *)
let collect_module prog (m : modl) =
  let bad loc msg = bad_annot prog loc msg in
  let stack : node list ref = ref [] in
  let add_node key loc annots =
    let n = { n_key = key; n_loc = loc; n_annots = annots; n_refs = [] } in
    Hashtbl.replace prog.nodes key n;
    n
  in
  let record_ref p loc =
    let target =
      match p with
      | Path.Pident id -> (
        match Hashtbl.find_opt m.m_stamps (Ident.unique_name id) with
        | Some key -> Some (key, true)
        | None -> None)
      | _ -> Some (key_of_path p, false)
    in
    match target with
    | Some (key, _) ->
      List.iter (fun n -> n.n_refs <- (key, loc) :: n.n_refs) !stack
    | None -> ()
  in
  let super = Tast_iterator.default_iterator in
  let rec expr_iter sub (e : Typedtree.expression) =
    (* Validate any kpath.* attributes that appear on expressions. *)
    let annots = parse_annots ~bad e.exp_attributes in
    (match e.exp_desc with
     | Typedtree.Texp_ident (p, _, _) -> record_ref p e.exp_loc
     | _ -> ());
    if annots.a_intr then begin
      (* An annotated anonymous handler: its body is a node of its own
         (and still contributes to the enclosing nodes). *)
      let parent = match !stack with [] -> m.m_name | n :: _ -> n.n_key in
      let key =
        Printf.sprintf "%s.<fun:%d>" parent
          e.exp_loc.Location.loc_start.Lexing.pos_lnum
      in
      let n = add_node key e.exp_loc annots in
      stack := n :: !stack;
      super.expr { sub with expr = expr_iter } e;
      stack := List.tl !stack
    end
    else super.expr { sub with expr = expr_iter } e
  and vb_iter sub (vb : Typedtree.value_binding) =
    (* Nested bindings: only annotated ones become nodes. *)
    let annots = parse_annots ~bad vb.vb_attributes in
    if annots.a_intr || annots.a_blocks || annots.a_transfers then
      match binding_name vb with
      | Some (id, name) ->
        let parent = match !stack with [] -> m.m_name | n :: _ -> n.n_key in
        let key = parent ^ "." ^ name in
        let n = add_node key vb.vb_loc annots in
        Hashtbl.replace m.m_stamps (Ident.unique_name id) key;
        stack := n :: !stack;
        super.value_binding { sub with expr = expr_iter; value_binding = vb_iter } vb;
        stack := List.tl !stack
      | None ->
        super.value_binding { sub with expr = expr_iter; value_binding = vb_iter } vb
    else
      super.value_binding { sub with expr = expr_iter; value_binding = vb_iter } vb
  in
  let iter = { super with expr = expr_iter; value_binding = vb_iter } in
  (* Top level: every binding is a node; nested modules contribute nodes
     under their own (innermost) module name. *)
  let rec do_structure mod_name (str : Typedtree.structure) =
    (* First pass: register stamps so forward refs inside [let rec]
       groups and across items resolve. *)
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_name vb with
              | Some (id, name) ->
                Hashtbl.replace m.m_stamps (Ident.unique_name id)
                  (mod_name ^ "." ^ name)
              | None -> ())
            vbs
        | _ -> ())
      str.str_items;
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match binding_name vb with
              | Some (_, name) ->
                let annots = parse_annots ~bad vb.vb_attributes in
                let n = add_node (mod_name ^ "." ^ name) vb.vb_loc annots in
                stack := [ n ];
                iter.expr iter vb.vb_expr;
                stack := []
              | None ->
                stack := [];
                iter.value_binding iter vb)
            vbs
        | Typedtree.Tstr_module mb -> (
          let sub_name =
            match mb.mb_id with Some id -> Ident.name id | None -> mod_name
          in
          match mb.mb_expr.mod_desc with
          | Typedtree.Tmod_structure str -> do_structure sub_name str
          | _ -> ())
        | _ -> ())
      str.str_items
  in
  do_structure m.m_name m.m_str

(* {2 Divergence: functions that always raise}

   Needed so a [brelse b; err ...] branch does not look like it falls
   through to a later release. Computed as a fixpoint across modules so
   local wrappers ([Fs.err] -> [Fs_error.raise_err] -> [raise]) are
   recognized. *)

let raise_builtins =
  [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

let apply_head (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
    Some (p, args)
  | _ -> None

let compute_raisers prog =
  let raisers : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace raisers k ()) raise_builtins;
  let resolve m p =
    match p with
    | Path.Pident id -> Hashtbl.find_opt m.m_stamps (Ident.unique_name id)
    | _ -> Some (key_of_path p)
  in
  let rec always_raises m (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
      match resolve m p with
      | Some k -> Hashtbl.mem raisers k
      | None -> false)
    | Texp_match (_, cases, _) ->
      cases <> []
      && List.for_all (fun (c : _ Typedtree.case) -> always_raises m c.c_rhs) cases
    | Texp_ifthenelse (_, a, Some b) -> always_raises m a && always_raises m b
    | Texp_let (_, _, cont) | Texp_sequence (_, cont) -> always_raises m cont
    | Texp_assert
        ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, _); _ }, _)
      ->
      true
    | _ -> false
  in
  let body_of (e : Typedtree.expression) =
    (* Peel the function parameters off a definition. *)
    let rec peel (e : Typedtree.expression) =
      match e.exp_desc with
      | Typedtree.Texp_function { cases = [ c ]; _ } -> peel c.c_rhs
      | _ -> e
    in
    peel e
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun m ->
        let rec do_structure (str : Typedtree.structure) =
          List.iter
            (fun (item : Typedtree.structure_item) ->
              match item.str_desc with
              | Typedtree.Tstr_value (_, vbs) ->
                List.iter
                  (fun (vb : Typedtree.value_binding) ->
                    match binding_name vb with
                    | Some (id, _) -> (
                      match Hashtbl.find_opt m.m_stamps (Ident.unique_name id) with
                      | Some key when not (Hashtbl.mem raisers key) ->
                        if always_raises m (body_of vb.vb_expr) then begin
                          Hashtbl.replace raisers key ();
                          changed := true
                        end
                      | _ -> ())
                    | None -> ())
                  vbs
              | Typedtree.Tstr_module
                  { mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
                do_structure s
              | _ -> ())
            str.str_items
        in
        do_structure m.m_str)
      prog.modls
  done;
  raisers

(* {1 Rule family 1: interrupt-context blocking} *)

(* Blocking leaves the checker knows about even without annotations. *)
let blocking_builtins = [ "Unix.sleep"; "Unix.sleepf"; "Thread.delay" ]

let check_intr prog =
  let node k = Hashtbl.find_opt prog.nodes k in
  let is_blocking k =
    List.mem k blocking_builtins
    || match node k with Some n -> n.n_annots.a_blocks | None -> false
  in
  let roots =
    Hashtbl.fold
      (fun _ n acc -> if n.n_annots.a_intr then n :: acc else acc)
      prog.nodes []
    |> List.sort (fun a b -> compare a.n_key b.n_key)
  in
  List.iter
    (fun root ->
      if root.n_annots.a_blocks then
        add_finding prog
          (finding ~rule:"bad-annotation" ~loc:root.n_loc
             (Printf.sprintf
                "%s is annotated both [@kpath.intr] and [@kpath.blocks]"
                root.n_key));
      if not (suppresses root.n_annots "intr-blocks") then begin
        (* BFS from the handler; the parent chain reconstructs the
           offending call path for the report. *)
        let visited : (string, unit) Hashtbl.t = Hashtbl.create 64 in
        let parent : (string, string) Hashtbl.t = Hashtbl.create 64 in
        let queue = Queue.create () in
        let hit = ref None in
        Queue.add root.n_key queue;
        Hashtbl.replace visited root.n_key ();
        while !hit = None && not (Queue.is_empty queue) do
          let k = Queue.take queue in
          match node k with
          | None -> ()
          | Some n ->
            List.iter
              (fun (callee, _loc) ->
                if !hit = None && not (Hashtbl.mem visited callee) then begin
                  Hashtbl.replace visited callee ();
                  Hashtbl.replace parent callee k;
                  if is_blocking callee then hit := Some callee
                  else
                    match node callee with
                    | Some cn
                      when (not cn.n_annots.a_intr)
                           && not (suppresses cn.n_annots "intr-blocks") ->
                      Queue.add callee queue
                    | _ -> ()
                end)
              (List.rev n.n_refs)
        done;
        match !hit with
        | None -> ()
        | Some blocker ->
          let rec chain k acc =
            match Hashtbl.find_opt parent k with
            | Some p -> chain p (k :: acc)
            | None -> k :: acc
          in
          add_finding prog
            (finding ~rule:"intr-blocks" ~loc:root.n_loc
               (Printf.sprintf
                  "interrupt-context %s can reach blocking %s: %s" root.n_key
                  blocker
                  (String.concat " -> " (chain blocker []))))
      end)
    roots

(* {1 Rule family 2: buffer lifecycle} *)

let acquire_keys =
  [
    "Cache.bread";
    "Cache.breada";
    "Cache.getblk";
    "Cache.getblk_hdr";
    "Cache.getblk_nb";
    "Cache.bread_nb";
    "Cache.breadn";
  ]

let release_keys =
  [ "Cache.brelse"; "Cache.bwrite"; "Cache.bawrite"; "Cache.bdwrite"; "Cache.release_hdr" ]

module IS = Set.Make (Int)

(* Is [ty] an immutable base shape (the whitelist for poly-compare,
   also used nowhere else)? *)
let rec immutable_base (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> (
    match Path.last p with
    | "int" | "char" | "bool" | "string" | "float" | "unit" | "int32"
    | "int64" | "nativeint" ->
      args = []
    | "list" | "option" | "array" -> List.for_all immutable_base args
    | _ -> false)
  | Ttuple ts -> List.for_all immutable_base ts
  | _ -> false

(* Does the type look like a buffer ([Buf.t])? *)
let is_buf_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> key_of_path p = "Buf.t"
  | _ -> false

let check_lifecycle prog raisers =
  List.iter
    (fun m ->
      let resolve p =
        match p with
        | Path.Pident id -> Hashtbl.find_opt m.m_stamps (Ident.unique_name id)
        | _ -> Some (key_of_path p)
      in
      let node_has_attr key pred =
        match Hashtbl.find_opt prog.nodes key with
        | Some n -> pred n.n_annots
        | None -> false
      in
      let is_acquire k =
        List.mem k acquire_keys || node_has_attr k (fun a -> a.a_transfers)
      in
      let is_release k = List.mem k release_keys in
      let is_raiser k = Hashtbl.mem raisers k in
      (* Occurrence scan: does [v] appear anywhere inside [e]? *)
      let free_in v (e : Typedtree.expression) =
        let found = ref false in
        let super = Tast_iterator.default_iterator in
        let expr sub (e : Typedtree.expression) =
          (match e.exp_desc with
           | Typedtree.Texp_ident (Path.Pident id, _, _) when Ident.same id v ->
             found := true
           | _ -> ());
          if not !found then super.expr sub e
        in
        let it = { super with expr } in
        it.expr it e;
        !found
      in
      let bare v (e : Typedtree.expression) =
        match e.exp_desc with
        | Typedtree.Texp_ident (Path.Pident id, _, _) -> Ident.same id v
        | _ -> false
      in
      (* Abstract interpretation of [e] w.r.t. tracked buffer [v]:
         returns the set of possible release counts (capped at 2) over
         the normal-exit paths; the empty set means every path raises.
         [escaped] latches when ownership leaves this function. *)
      let check_scope ~nolint v vloc (scope : Typedtree.expression) =
        let escaped = ref false in
        let seq a b =
          if IS.is_empty a then a
          else if IS.is_empty b then b
          else
            IS.fold
              (fun x acc -> IS.fold (fun y acc -> IS.add (min 2 (x + y)) acc) b acc)
              a IS.empty
        in
        let zero = IS.singleton 0 in
        let rec ev (e : Typedtree.expression) : IS.t =
          if !escaped then zero
          else
            match e.exp_desc with
            | Typedtree.Texp_ident (Path.Pident id, _, _) when Ident.same id v ->
              (* Bare occurrence outside a recognized context: the value
                 escapes (returned, aliased...). *)
              escaped := true;
              zero
            | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable
              ->
              zero
            | Texp_function _ ->
              (* The closure may run later, in another context. *)
              if free_in v e then escaped := true;
              zero
            | Texp_apply (head, args) -> (
              let head_key =
                match head.exp_desc with
                | Texp_ident (p, _, _) -> resolve p
                | _ -> None
              in
              let arg_exprs =
                List.filter_map (fun (_, a) -> a) args
              in
              let releases_v =
                match head_key with
                | Some k -> is_release k && List.exists (bare v) arg_exprs
                | None -> false
              in
              let s =
                List.fold_left
                  (fun acc a ->
                    if bare v a then
                      if releases_v then acc (* counted below *)
                      else begin
                        (* Passed whole to another function (pin, a
                           queue insert, a completion chain): ownership
                           leaves this scope. *)
                        escaped := true;
                        acc
                      end
                    else seq acc (ev a))
                  (ev head) arg_exprs
              in
              let s = if releases_v then seq s (IS.singleton 1) else s in
              match head_key with
              | Some k when is_raiser k -> IS.empty
              | _ -> s)
            | Texp_sequence (a, b) -> seq (ev a) (ev b)
            | Texp_let (_, vbs, cont) ->
              let s =
                List.fold_left
                  (fun acc (vb : Typedtree.value_binding) ->
                    if bare v vb.vb_expr then begin
                      escaped := true;  (* aliased under a new name *)
                      acc
                    end
                    else seq acc (ev vb.vb_expr))
                  zero vbs
              in
              seq s (ev cont)
            | Texp_ifthenelse (c, a, b) ->
              let sb = match b with Some b -> ev b | None -> zero in
              seq (ev c) (IS.union (ev a) sb)
            | Texp_match (scrut, cases, _) ->
              let s = ev scrut in
              let joined =
                List.fold_left
                  (fun acc (c : _ Typedtree.case) ->
                    let g = match c.c_guard with Some g -> ev g | None -> zero in
                    IS.union acc (seq g (ev c.c_rhs)))
                  IS.empty cases
              in
              seq s joined
            | Texp_field ({ exp_desc = Texp_ident _; _ }, _, _) -> zero
            | Texp_field (e, _, _) -> ev e
            | Texp_setfield (r, _, _, x) ->
              (* [v.f <- e] is fine; [r.f <- v] stores the buffer. *)
              let s = if bare v r then zero else ev r in
              if bare v x then begin
                escaped := true;
                s
              end
              else seq s (ev x)
            | Texp_assert
                ( { exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, _);
                    _ },
                  _ ) ->
              IS.empty
            | Texp_assert (e, _) -> ev e
            | Texp_while (c, body) ->
              (* A release inside a loop body cannot be counted. *)
              let sb = ev body in
              if not (IS.equal sb zero) then escaped := true;
              ev c
            | Texp_for (_, _, lo, hi, _, body) ->
              let sb = ev body in
              if not (IS.equal sb zero) then escaped := true;
              seq (ev lo) (ev hi)
            | Texp_try (body, handlers) ->
              (* An exception can fire mid-body; give up unless nothing
                 in the region touches the buffer. *)
              let sb = ev body in
              let sh =
                List.fold_left
                  (fun acc (c : _ Typedtree.case) -> IS.union acc (ev c.c_rhs))
                  IS.empty handlers
              in
              if not (IS.equal sb zero && IS.subset sh zero) then escaped := true;
              zero
            | Texp_construct (_, _, es) | Texp_tuple es | Texp_array es ->
              List.fold_left
                (fun acc e ->
                  if bare v e then begin
                    escaped := true;
                    acc
                  end
                  else seq acc (ev e))
                zero es
            | Texp_variant (_, Some e) | Texp_lazy e ->
              if bare v e || free_in v e then begin
                escaped := true;
                zero
              end
              else ev e
            | Texp_variant (_, None) -> zero
            | Texp_record { fields; extended_expression; _ } ->
              let s =
                match extended_expression with
                | Some e when bare v e ->
                  escaped := true;
                  zero
                | Some e -> ev e
                | None -> zero
              in
              Array.fold_left
                (fun acc (_, def) ->
                  match def with
                  | Typedtree.Overridden (_, e) ->
                    if bare v e then begin
                      escaped := true;
                      acc
                    end
                    else seq acc (ev e)
                  | Typedtree.Kept _ -> acc)
                s fields
            | _ ->
              (* Anything unmodelled: safe only if the buffer is not
                 mentioned inside. *)
              if free_in v e then escaped := true;
              zero
        in
        let s = ev scope in
        if not !escaped then begin
          let leak_ok = List.mem "buf-leak" nolint in
          let dbl_ok = List.mem "buf-double-release" nolint in
          if IS.mem 2 s && not dbl_ok then
            add_finding prog
              (finding ~rule:"buf-double-release" ~loc:vloc
                 (Printf.sprintf
                    "buffer %s may be released more than once on some path"
                    (Ident.name v)));
          if IS.mem 0 s && not leak_ok then
            add_finding prog
              (finding ~rule:"buf-leak" ~loc:vloc
                 (if IS.cardinal s = 1 then
                    Printf.sprintf
                      "buffer %s acquired here is never released (brelse/bawrite/bdwrite)"
                      (Ident.name v)
                  else
                    Printf.sprintf
                      "buffer %s is released on some paths but leaks on others"
                      (Ident.name v)))
        end
      in
      (* Find the acquire points. Two shapes are tracked:
         [let b = Cache.bread ... in scope], and
         [match Cache.bread_nb ... with `Hit b -> scope | ...]. *)
      let nolint_stack = ref [] in
      let active_nolint () = List.concat !nolint_stack in
      let super = Tast_iterator.default_iterator in
      let rec expr_iter sub (e : Typedtree.expression) =
        let pushed =
          (parse_annots ~bad:(fun _ _ -> ()) e.exp_attributes).a_nolint
        in
        nolint_stack := pushed :: !nolint_stack;
        (match e.exp_desc with
         | Typedtree.Texp_let (_, vbs, cont) ->
           List.iter
             (fun (vb : Typedtree.value_binding) ->
               match (binding_name vb, apply_head vb.vb_expr) with
               | Some (id, _), Some (p, _) -> (
                 match resolve p with
                 | Some k
                   when is_acquire k && is_buf_type vb.vb_pat.pat_type ->
                   let annots =
                     parse_annots ~bad:(fun _ _ -> ()) vb.vb_attributes
                   in
                   if not annots.a_transfers then
                     check_scope
                       ~nolint:(annots.a_nolint @ active_nolint ())
                       id vb.vb_loc cont
                 | _ -> ())
               | _ -> ())
             vbs
         | Texp_match (scrut, cases, _) -> (
           match apply_head scrut with
           | Some (p, _) -> (
             match resolve p with
             | Some k when is_acquire k ->
               List.iter
                 (fun (c : _ Typedtree.case) ->
                   (* Track a single Buf.t-typed variable bound by the
                      case pattern ([Some b], [`Hit b]...). *)
                   let vars = ref [] in
                   let rec walk (p : Typedtree.pattern) =
                     match p.pat_desc with
                     | Typedtree.Tpat_var (id, _) ->
                       vars := (id, p.pat_type, p.pat_loc) :: !vars
                     | Tpat_alias (q, id, _) ->
                       vars := (id, p.pat_type, p.pat_loc) :: !vars;
                       walk q
                     | Tpat_construct (_, _, ps, _) -> List.iter walk ps
                     | Tpat_variant (_, Some q, _) -> walk q
                     | Tpat_tuple ps -> List.iter walk ps
                     | Tpat_or (a, b, _) ->
                       walk a;
                       walk b
                     | _ -> ()
                   in
                   (match Typedtree.split_pattern c.c_lhs with
                    | Some vp, _ -> walk vp
                    | None, _ -> ());
                   match
                     List.filter (fun (_, ty, _) -> is_buf_type ty) !vars
                   with
                   | [ (id, _, loc) ] ->
                     check_scope ~nolint:(active_nolint ()) id loc c.c_rhs
                   | _ -> ())
                 cases
             | _ -> ())
           | None -> ())
         | _ -> ());
        super.expr { sub with expr = expr_iter } e;
        nolint_stack := List.tl !nolint_stack
      in
      let vb_top (vb : Typedtree.value_binding) =
        let annots = parse_annots ~bad:(fun _ _ -> ()) vb.vb_attributes in
        nolint_stack := [ annots.a_nolint ];
        let it = { super with expr = expr_iter } in
        it.expr it vb.vb_expr;
        nolint_stack := []
      in
      let rec do_structure (str : Typedtree.structure) =
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Typedtree.Tstr_value (_, vbs) -> List.iter vb_top vbs
            | Typedtree.Tstr_module
                { mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
              do_structure s
            | _ -> ())
          str.str_items
      in
      do_structure m.m_str)
    prog.modls

(* {1 Rule family 3: determinism} *)

(* {2 Closure-carrying variants}

   A variant with a constructor holding a function ([Tee of (bytes ->
   int -> unit)]) poisons structural equality: [=], [<>] and [List.mem]
   specialize polymorphic compare at the variant type, and the moment a
   closure-carrying constructor is compared the runtime raises
   [Invalid_argument "compare: functional value"]. The hazard is
   invisible at the call site -- the code typechecks and works until the
   first such value flows in -- so find the poisoned types by scanning
   every declaration, then flag the equality sites. Closed as a fixpoint
   so a variant embedding another poisoned variant is poisoned too.
   Types are keyed by their last path component; record types are left
   unmarked (a record of closures compared with [=] still raises, but
   records here are mutable state, already outside poly-compare's
   immutable whitelist for [compare]). *)

let rec mentions_closure marked (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Tconstr (p, args, _) ->
    Hashtbl.mem marked (Path.last p)
    || List.exists (mentions_closure marked) args
  | Ttuple ts -> List.exists (mentions_closure marked) ts
  | _ -> false

let compute_closure_variants prog =
  let marked : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let ctor_poisoned (c : Typedtree.constructor_declaration) =
    match c.cd_args with
    | Typedtree.Cstr_tuple cts ->
      List.exists (fun (ct : Typedtree.core_type) ->
          mentions_closure marked ct.ctyp_type)
        cts
    | Typedtree.Cstr_record lds ->
      List.exists (fun (ld : Typedtree.label_declaration) ->
          mentions_closure marked ld.ld_type.ctyp_type)
        lds
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun m ->
        let rec do_structure (str : Typedtree.structure) =
          List.iter
            (fun (item : Typedtree.structure_item) ->
              match item.str_desc with
              | Typedtree.Tstr_type (_, decls) ->
                List.iter
                  (fun (d : Typedtree.type_declaration) ->
                    match d.typ_kind with
                    | Typedtree.Ttype_variant ctors ->
                      let name = d.typ_name.txt in
                      if
                        (not (Hashtbl.mem marked name))
                        && List.exists ctor_poisoned ctors
                      then begin
                        Hashtbl.replace marked name ();
                        changed := true
                      end
                    | _ -> ())
                  decls
              | Typedtree.Tstr_module
                  { mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
                do_structure s
              | _ -> ())
            str.str_items
        in
        do_structure m.m_str)
      prog.modls
  done;
  marked

let wallclock_keys =
  [ "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.localtime"; "Unix.gmtime" ]

let sort_keys = [ "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq" ]

let polyeq_keys = [ "="; "<>"; "List.mem" ]

(* {2 Hash tables built by functor}

   [Hashtbl.Make (H).fold] enumerates in hash order exactly like
   [Hashtbl.fold], but is spelled after the module it is bound to
   ([Inttbl.fold]). Collect those names: modules bound to an
   application of [Hashtbl.Make]/[MakeSeeded] (or to an alias of one),
   and compilation units that include such an application, under their
   own name. Closed as a fixpoint so aliases declared before their
   target resolve. *)

let table_modules prog =
  let names : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace names "Hashtbl" ();
  let rec bare (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_constraint (me, _, _, _) -> bare me
    | _ -> me
  in
  let is_table (me : Typedtree.module_expr) =
    match (bare me).mod_desc with
    | Typedtree.Tmod_apply (f, _, _) -> (
      match (bare f).mod_desc with
      | Tmod_ident (p, _) -> (
        match key_of_path p with
        | "Hashtbl.Make" | "Hashtbl.MakeSeeded" -> true
        | _ -> false)
      | _ -> false)
    | Tmod_ident (p, _) -> (
      match List.rev (path_components p) with
      | last :: _ -> Hashtbl.mem names last
      | [] -> false)
    | _ -> false
  in
  let changed = ref true in
  let add name =
    if not (Hashtbl.mem names name) then begin
      Hashtbl.replace names name ();
      changed := true
    end
  in
  while !changed do
    changed := false;
    List.iter
      (fun m ->
        let rec do_structure (str : Typedtree.structure) =
          List.iter
            (fun (item : Typedtree.structure_item) ->
              match item.str_desc with
              | Typedtree.Tstr_include { incl_mod; _ } when is_table incl_mod ->
                add m.m_name
              | Tstr_module { mb_id = Some id; mb_expr; _ } -> (
                if is_table mb_expr then add (Ident.name id);
                match mb_expr.mod_desc with
                | Tmod_structure s -> do_structure s
                | _ -> ())
              | _ -> ())
            str.str_items
        in
        do_structure m.m_str)
      prog.modls
  done;
  names

let check_determinism prog =
  let closure_variants = compute_closure_variants prog in
  let tables = table_modules prog in
  (* [M.fold]/[M.iter] over a hash table, [Hashtbl]'s own or functor-built. *)
  let is_table_enum key =
    match String.rindex_opt key '.' with
    | Some i -> (
      match String.sub key (i + 1) (String.length key - i - 1) with
      | "fold" | "iter" -> Hashtbl.mem tables (String.sub key 0 i)
      | _ -> false)
    | None -> false
  in
  List.iter
    (fun m ->
      let in_rng_module =
        Filename.basename m.m_file = "rng.ml"
      in
      (* Pre-walk: mark Hashtbl.fold applications whose result feeds
         directly into a List.sort (the sorted-fold idiom). *)
      let exempt : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
      let rec head_key (e : Typedtree.expression) =
        (* Look through curried application: [a |> List.sort cmp] types
           as [(List.sort cmp) a], an apply whose head is an apply. *)
        match e.exp_desc with
        | Typedtree.Texp_apply (h, _) -> head_key h
        | Texp_ident (p, _, _) -> Some (key_of_path p)
        | _ -> None
      in
      let is_fold_apply (e : Typedtree.expression) =
        match head_key e with Some k -> is_table_enum k | None -> false
      in
      let debug = Sys.getenv_opt "KPATH_LINT_DEBUG" <> None in
      let prewalk =
        let super = Tast_iterator.default_iterator in
        let expr sub (e : Typedtree.expression) =
          (match e.exp_desc with
           | Typedtree.Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
             -> (
             if debug then
               Printf.eprintf "apply %s:%d head=%s args=%d\n%!" m.m_file
                 e.exp_loc.Location.loc_start.Lexing.pos_lnum (key_of_path p)
                 (List.length args);
             ignore args)
           | _ -> ());
          (match e.exp_desc with
           | Typedtree.Texp_apply (_, args) -> (
             match head_key e with
             | Some k when List.mem k sort_keys ->
               List.iter
                 (fun (_, a) ->
                   match a with
                   | Some a when is_fold_apply a ->
                     Hashtbl.replace exempt a.exp_loc ()
                   | _ -> ())
                 args
             | _ -> ())
           | _ -> ());
          super.expr sub e
        in
        { super with expr }
      in
      prewalk.structure prewalk m.m_str;
      (* Main walk, with the active [@kpath.nolint] context. *)
      let nolint_stack : string list list ref = ref [] in
      let suppressed rule = List.exists (List.mem rule) !nolint_stack in
      let report rule loc msg =
        if not (suppressed rule) then add_finding prog (finding ~rule ~loc msg)
      in
      let first_arrow_arg ty =
        match Types.get_desc ty with
        | Types.Tarrow (_, a, _, _) -> Some a
        | _ -> None
      in
      let super = Tast_iterator.default_iterator in
      let rec expr_iter sub (e : Typedtree.expression) =
        let pushed =
          (parse_annots ~bad:(fun _ _ -> ()) e.exp_attributes).a_nolint
        in
        nolint_stack := pushed :: !nolint_stack;
        (match e.exp_desc with
         | Typedtree.Texp_ident (p, _, _) -> (
           let comps = normalize_components (path_components p) in
           let key = key_of_components comps in
           (match comps with
            | "Random" :: _ when not in_rng_module ->
              report "rng" e.exp_loc
                (Printf.sprintf
                   "%s: nondeterministic PRNG outside lib/sim/rng (use Rng)"
                   (String.concat "." comps))
            | _ -> ());
           if List.mem key wallclock_keys then
             report "wallclock" e.exp_loc
               (Printf.sprintf
                  "%s: wall-clock time in simulator code (use Engine.now)" key);
           if key = "compare" || key = "Hashtbl.hash" then
             (match first_arrow_arg e.exp_type with
              | Some a when not (immutable_base a) ->
                report "poly-compare" e.exp_loc
                  (Printf.sprintf
                     "polymorphic %s instantiated at a non-immediate type \
                      (write a dedicated comparison)"
                     key)
              | _ -> ());
           if List.mem key polyeq_keys then
             match first_arrow_arg e.exp_type with
             | Some a when mentions_closure closure_variants a ->
               report "poly-compare" e.exp_loc
                 (Printf.sprintf
                    "structural %s instantiated at a closure-carrying type \
                     (comparing a functional constructor raises; match on \
                     the shape instead)"
                    key)
             | _ -> ())
         | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
           match key_of_path p with
           | k when is_table_enum k ->
             if not (Hashtbl.mem exempt e.exp_loc) then
               report "hashtbl-order" e.exp_loc
                 (Printf.sprintf
                    "%s enumerates in hash order; sort the result (... |> \
                     List.sort ...) or justify with [@kpath.nolint \
                     \"hashtbl-order: ...\"]"
                    k)
           | _ -> ())
         | _ -> ());
        super.expr { sub with expr = expr_iter } e;
        nolint_stack := List.tl !nolint_stack
      in
      let rec vb_iter sub (vb : Typedtree.value_binding) =
        let pushed =
          (parse_annots ~bad:(fun _ _ -> ()) vb.vb_attributes).a_nolint
        in
        nolint_stack := pushed :: !nolint_stack;
        super.value_binding
          { sub with expr = expr_iter; value_binding = vb_iter }
          vb;
        nolint_stack := List.tl !nolint_stack
      in
      let it = { super with expr = expr_iter; value_binding = vb_iter } in
      it.structure it m.m_str)
    prog.modls

(* {1 Rule family 4: sealed block areas} *)

(* The positional argument a writer mutates, if [key] names one. *)
let write_dest key =
  let prefixed pre =
    String.length key > String.length pre
    && String.sub key 0 (String.length pre) = pre
  in
  match key with
  | "Bytes.blit" | "Bytes.unsafe_blit" | "Bytes.blit_string"
  | "Bytes.unsafe_blit_string" ->
    Some 2
  | "Bytes.fill" | "Bytes.unsafe_fill" | "Bytes.set" | "Bytes.unsafe_set" ->
    Some 0
  | "Layout.write_superblock" | "Inode.serialize" -> Some 1
  | _ when prefixed "Bytes.set_" -> Some 0
  | _ -> None

(* A buffer expression, as a key comparable across sites: a variable,
   or a chain of field reads from one. *)
let rec buf_key (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some (Ident.unique_name id)
  | Texp_field (r, _, lbl) ->
    Option.map (fun k -> k ^ "." ^ lbl.Types.lbl_name) (buf_key r)
  | _ -> None

let check_sealed prog =
  List.iter
    (fun m ->
      let positional args =
        List.filter_map
          (fun (l, a) ->
            match (l, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
          args
      in
      let nolint_stack = ref [] in
      let suppressed () =
        List.exists (List.mem "sealed-write") !nolint_stack
      in
      (* Per top-level function: where [Cache.own] was called on each
         buffer, and every write into a buffer's data area. *)
      let owns = ref [] and writes = ref [] in
      let super = Tast_iterator.default_iterator in
      let rec expr_iter sub (e : Typedtree.expression) =
        let pushed =
          (parse_annots ~bad:(fun _ _ -> ()) e.exp_attributes).a_nolint
        in
        nolint_stack := pushed :: !nolint_stack;
        (match e.exp_desc with
         | Typedtree.Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
           -> (
           let pos = positional args in
           match key_of_path p with
           | "Cache.own" -> (
             match Option.bind (List.nth_opt pos 1) buf_key with
             | Some k -> owns := (k, e.exp_loc) :: !owns
             | None -> ())
           | key -> (
             match Option.bind (write_dest key) (List.nth_opt pos) with
             | Some
                 {
                   exp_desc =
                     Texp_field (b, _, { lbl_name = "b_data"; lbl_res; _ });
                   _;
                 }
               when is_buf_type lbl_res && not (suppressed ()) ->
               writes := (buf_key b, key, e.exp_loc) :: !writes
             | _ -> ()))
         | _ -> ());
        super.expr { sub with expr = expr_iter } e;
        nolint_stack := List.tl !nolint_stack
      in
      let before (a : Location.t) (b : Location.t) =
        a.loc_start.Lexing.pos_cnum < b.loc_start.Lexing.pos_cnum
      in
      let owned (k, _, loc) =
        match k with
        | Some k ->
          List.exists
            (fun (k', own_loc) -> String.equal k k' && before own_loc loc)
            !owns
        | None -> false
      in
      let vb_top (vb : Typedtree.value_binding) =
        let annots = parse_annots ~bad:(fun _ _ -> ()) vb.vb_attributes in
        nolint_stack := [ annots.a_nolint ];
        owns := [];
        writes := [];
        let it = { super with expr = expr_iter } in
        it.expr it vb.vb_expr;
        List.iter
          (fun ((_, key, loc) as w) ->
            if not (owned w) then
              add_finding prog
                (finding ~rule:"sealed-write" ~loc
                   (Printf.sprintf
                      "%s writes a buffer's b_data with no earlier Cache.own \
                       on that buffer (its area may be sealed: shared with \
                       a device store or a payload view)"
                      key)))
          !writes;
        nolint_stack := []
      in
      let rec do_structure (str : Typedtree.structure) =
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Typedtree.Tstr_value (_, vbs) -> List.iter vb_top vbs
            | Typedtree.Tstr_module
                { mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
              do_structure s
            | _ -> ())
          str.str_items
      in
      do_structure m.m_str)
    prog.modls

(* {1 Driver} *)

let load_cmt prog path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | _, Some src when Filename.check_suffix src "-gen" -> ()
  | Cmt_format.Implementation str, src ->
    let name = strip_mangle cmt.cmt_modname in
    let file = match src with Some s -> s | None -> path in
    prog.modls <-
      { m_name = name; m_file = file; m_str = str; m_stamps = Hashtbl.create 64 }
      :: prog.modls
  | _ -> ()

type result = {
  r_findings : finding list;
  r_modules : int;
  r_nodes : int;
}

let run (paths : string list) : result =
  let prog = { nodes = Hashtbl.create 256; modls = []; findings = [] } in
  List.iter (load_cmt prog) paths;
  prog.modls <- List.sort (fun a b -> compare a.m_file b.m_file) prog.modls;
  List.iter (fun m -> collect_module prog m) prog.modls;
  let raisers = compute_raisers prog in
  check_intr prog;
  check_lifecycle prog raisers;
  check_determinism prog;
  check_sealed prog;
  {
    r_findings = List.sort_uniq compare_findings prog.findings;
    r_modules = List.length prog.modls;
    r_nodes = Hashtbl.length prog.nodes;
  }

let pp_finding fmt f =
  Format.fprintf fmt "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json (r : result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"tool\": \"kpath-verify\",\n";
  Buffer.add_string b (Printf.sprintf "  \"modules\": %d,\n" r.r_modules);
  Buffer.add_string b (Printf.sprintf "  \"functions\": %d,\n" r.r_nodes);
  Buffer.add_string b
    (Printf.sprintf "  \"findings\": %d,\n  \"results\": [\n"
       (List.length r.r_findings));
  List.iteri
    (fun i f ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \
            \"message\": \"%s\"}%s\n"
           (json_escape f.rule) (json_escape f.file) f.line (json_escape f.msg)
           (if i = List.length r.r_findings - 1 then "" else ",")))
    r.r_findings;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
