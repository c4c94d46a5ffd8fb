module Table = R2c_util.Table
module Dconfig = R2c_core.Dconfig
module Defenses = R2c_defenses.Defenses
module Lint = R2c_analysis.Lint
module Cfg = R2c_analysis.Cfg
module Gadget = R2c_analysis.Gadget
module Selfcheck = R2c_analysis.Selfcheck

type variant = {
  label : string;
  seed : int;
  findings : Lint.finding list;
  n_gadgets : int;
  cfg_stats : Cfg.stats;
}

type dataflow_row = {
  dwork : string;
  dead_stores : int;
  folded : int;
  max_iterations : int;
}

type t = {
  ir_checked : (string * string list) list;
  dataflow : dataflow_row list;
  r2c : variant list;
  r2c_survivors : int;
  baseline : variant list;
  baseline_survivors : int;
  checked : variant;
  selfcheck : Selfcheck.outcome list;
  ir_selfcheck : Selfcheck.ir_outcome list;
}

let default_seeds = [ 2; 3; 5; 7; 11 ]

(* Every IR program the repo generates, named; `make check` validates the
   lot, so a Builder or workload-generator regression fails loudly. *)
let ir_programs () =
  List.concat
    [
      List.map
        (fun (b : R2c_workloads.Spec.benchmark) -> (b.name, b.program))
        (R2c_workloads.Spec.all ());
      [
        ("nginx", R2c_workloads.Webserver.server `Nginx ~requests:40);
        ("apache", R2c_workloads.Webserver.server `Apache ~requests:40);
        ("vulnapp", R2c_workloads.Vulnapp.program ());
        ("genprog-200", R2c_workloads.Genprog.generate ~seed:1 ~funcs:200);
        ("browser", R2c_workloads.Browser.program ~pages:2);
      ];
    ]

let check_ir () =
  List.map
    (fun (name, p) ->
      (name, List.map Validate.error_to_string (Validate.check p)))
    (ir_programs ())

(* Dataflow statistics per workload: how much the solver sees. Dead
   stores come from the liveness-backed lint rule (a clean workload has
   none); folded instructions and sweep counts from the liveness/uninit/
   CCP fixpoints. *)
let dataflow_stats () =
  List.map
    (fun (name, p) ->
      let s = Dataflow.program_stats p in
      let dead =
        List.length
          (List.filter
             (fun (f : Lint.ir_finding) -> f.Lint.ir_rule = "dead-store")
             (Lint.run_ir p))
      in
      {
        dwork = name;
        dead_stores = dead;
        folded = s.Dataflow.folded;
        max_iterations = s.Dataflow.max_iterations;
      })
    (ir_programs ())

let audit_variant ~label ~expect ~seed img =
  {
    label;
    seed;
    findings = Lint.run ~expect img;
    n_gadgets = List.length (Gadget.scan img);
    cfg_stats = Cfg.stats (Cfg.recover img);
  }

let run ?(seeds = default_seeds) () =
  let ir_checked = check_ir () in
  let dataflow = dataflow_stats () in
  let full_expect = Lint.expect_of_dconfig (Dconfig.full ()) in
  let r2c_images =
    List.map (fun seed -> (seed, Defenses.build_vulnapp Defenses.r2c ~seed)) seeds
  in
  let r2c =
    List.map
      (fun (seed, img) -> audit_variant ~label:"r2c" ~expect:full_expect ~seed img)
      r2c_images
  in
  let r2c_survivors =
    List.length (Gadget.survivors (List.map (fun (_, img) -> Gadget.scan img) r2c_images))
  in
  let baseline_images =
    List.map (fun seed -> (seed, R2c_workloads.Vulnapp.build ~seed Dconfig.baseline)) seeds
  in
  let baseline_expect = Lint.expect_of_dconfig Dconfig.baseline in
  let baseline =
    List.map
      (fun (seed, img) -> audit_variant ~label:"baseline" ~expect:baseline_expect ~seed img)
      baseline_images
  in
  let baseline_survivors =
    List.length
      (Gadget.survivors (List.map (fun (_, img) -> Gadget.scan img) baseline_images))
  in
  let checked_expect = Lint.expect_of_dconfig Dconfig.full_checked in
  let checked_img = Defenses.build_vulnapp Defenses.r2c_checked ~seed:3 in
  let checked =
    audit_variant ~label:"r2c-checked" ~expect:checked_expect ~seed:3 checked_img
  in
  let selfcheck = Selfcheck.run ~expect:checked_expect checked_img in
  let ir_selfcheck = Selfcheck.run_ir () in
  { ir_checked; dataflow; r2c; r2c_survivors; baseline; baseline_survivors; checked;
    selfcheck; ir_selfcheck }

let min_gadgets variants =
  List.fold_left (fun acc v -> min acc v.n_gadgets) max_int variants

let gate t =
  Gate.failed
    (List.map
       (fun (name, errs) -> ("ir-validation", name ^ ": " ^ String.concat "; " errs, errs = []))
       t.ir_checked
    @ List.map
        (fun v ->
          ( "lint",
            Printf.sprintf "%s seed %d: %d finding(s)" v.label v.seed (List.length v.findings),
            v.findings = [] ))
        (t.checked :: t.r2c @ t.baseline)
    @ List.map
        (fun (o : Selfcheck.outcome) ->
          ( "selfcheck",
            Selfcheck.mutation_to_string o.mutation ^ " not flagged by exactly its rule",
            o.ok ))
        t.selfcheck
    @ List.map
        (fun (o : Selfcheck.ir_outcome) ->
          ( "ir-selfcheck",
            Selfcheck.ir_mutation_to_string o.ir_mutation ^ " not flagged by exactly its rule",
            o.ir_ok ))
        t.ir_selfcheck
    @ [
        ( "gadget-survivors",
          Printf.sprintf "%d cross-variant survivors, not below the smallest variant's %d"
            t.r2c_survivors (min_gadgets t.r2c),
          t.r2c_survivors < min_gadgets t.r2c );
      ])

let print t =
  let ir_bad = List.filter (fun (_, errs) -> errs <> []) t.ir_checked in
  Printf.printf "IR validation: %d workload programs, %d with diagnostics\n"
    (List.length t.ir_checked) (List.length ir_bad);
  List.iter
    (fun (name, errs) ->
      List.iter (fun e -> Printf.printf "  %s: %s\n" name e) errs)
    ir_bad;
  Table.print ~title:"IR dataflow statistics (per workload)"
    ~headers:[ "workload"; "dead stores"; "folded"; "max iters" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    (List.map
       (fun d ->
         [
           d.dwork;
           string_of_int d.dead_stores;
           string_of_int d.folded;
           string_of_int d.max_iterations;
         ])
       t.dataflow);
  let variant_row v =
    [
      v.label;
      string_of_int v.seed;
      string_of_int (List.length v.findings);
      string_of_int v.cfg_stats.Cfg.n_funcs;
      string_of_int v.cfg_stats.Cfg.n_blocks;
      string_of_int v.cfg_stats.Cfg.n_edges;
      string_of_int v.n_gadgets;
    ]
  in
  Table.print ~title:"Static image audit (vulnapp)"
    ~headers:[ "config"; "seed"; "findings"; "funcs"; "blocks"; "edges"; "gadgets" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
              Table.Right; Table.Right ]
    (List.map variant_row (t.r2c @ t.baseline @ [ t.checked ]));
  List.iter
    (fun v ->
      List.iter
        (fun f -> Printf.printf "  %s seed %d: %s\n" v.label v.seed (Lint.finding_to_string f))
        v.findings)
    (t.r2c @ t.baseline @ [ t.checked ]);
  Printf.printf
    "Gadget survivors across %d diversified r2c variants: %d (min single-variant %d)\n"
    (List.length t.r2c) t.r2c_survivors (min_gadgets t.r2c);
  Printf.printf "Gadget survivors across %d identical baseline variants: %d\n"
    (List.length t.baseline) t.baseline_survivors;
  Table.print ~title:"Sanitizer wiring self-check (r2c-checked image)"
    ~headers:[ "mutation"; "expected rule"; "rules hit"; "findings"; "verdict" ]
    (List.map
       (fun (o : Selfcheck.outcome) ->
         [
           Selfcheck.mutation_to_string o.mutation;
           o.expected;
           String.concat "," o.rules_hit;
           string_of_int o.n_findings;
           (if o.ok then "ok" else "MISWIRED");
         ])
       t.selfcheck);
  Table.print ~title:"IR rule pack + validator wiring self-check"
    ~headers:[ "mutation"; "expected rule"; "rules hit"; "findings"; "verdict" ]
    (List.map
       (fun (o : Selfcheck.ir_outcome) ->
         [
           Selfcheck.ir_mutation_to_string o.ir_mutation;
           o.ir_expected;
           String.concat "," o.ir_rules_hit;
           string_of_int o.ir_n_findings;
           (if o.ir_ok then "ok" else "MISWIRED");
         ])
       t.ir_selfcheck)
