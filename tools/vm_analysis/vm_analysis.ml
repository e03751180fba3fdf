(* vm_analysis: dump the range-analysis verdict table for the sample
   program corpus as JSON (the CI artifact uploaded by the lint job).

   One object per sample: every faultable site (payload load/store,
   register-divisor div/rem) with its pc, kind, proven/checked verdict
   and the interval the analysis derived, plus the proven/total summary
   the acceptance gate watches, and the compilation tier of every basic
   block. Report-only — the differential test suites are the gate; this
   artifact makes a verdict or tier regression visible in CI without
   rerunning the analysis locally. *)

module Vm = Kpath_vm.Vm
module Compile = Kpath_vm.Compile
module Samples = Kpath_vm.Samples

let corpus =
  [
    ("checksum", Samples.checksum ());
    ("tee-hash", Samples.tee_hash ());
    ("dropper-mod4", Samples.dropper ~modulo:4);
    ("router-fan3", Samples.router ~fanout:3);
    ("xor-mask", Samples.xor_mask ~key:0x5a);
    ("xor-stream", Samples.xor_stream ~key:0xc3);
    ("histogram", Samples.histogram ());
    ("dedup-11bit", Samples.dedup_chunks ~bits:11);
    ("bounded-copy", Samples.bounded_copy ());
    ("oob-probe", Samples.oob_probe ());
  ]

let kind_name = function
  | `Load -> "load"
  | `Store -> "store"
  | `Div -> "div"

let verdict_name = function `Proven -> "proven" | `Checked -> "checked"

let () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"tool\": \"vm-analysis\",\n  \"programs\": [\n";
  List.iteri
    (fun i (name, p) ->
      let accesses = Vm.accesses p in
      let proven =
        List.length
          (List.filter (fun a -> a.Vm.a_bounds = `Proven) accesses)
      in
      let tiers =
        Array.to_list (Compile.block_tiers (Compile.compile p))
        |> List.map (Printf.sprintf "\"%s\"")
        |> String.concat ", "
      in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"insns\": %d, \"sites\": %d, \"proven\": \
            %d, \"tiers\": [%s], \"accesses\": [\n"
           name
           (Array.length (Vm.insns p))
           (List.length accesses) proven tiers);
      List.iteri
        (fun j a ->
          Buffer.add_string b
            (Printf.sprintf
               "      {\"pc\": %d, \"kind\": \"%s\", \"verdict\": \"%s\", \
                \"range\": \"%s\"}%s\n"
               a.Vm.a_pc (kind_name a.Vm.a_kind)
               (verdict_name a.Vm.a_bounds)
               a.Vm.a_range
               (if j = List.length accesses - 1 then "" else ",")))
        accesses;
      Buffer.add_string b
        (Printf.sprintf "    ]}%s\n"
           (if i = List.length corpus - 1 then "" else ",")))
    corpus;
  Buffer.add_string b "  ]\n}\n";
  let out =
    match Sys.argv with [| _; file |] -> Some file | _ -> None
  in
  match out with
  | Some file ->
    let oc = open_out file in
    output_string oc (Buffer.contents b);
    close_out oc
  | None -> print_string (Buffer.contents b)
