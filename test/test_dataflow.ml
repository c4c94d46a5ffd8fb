(* Dataflow framework + translation validator (PR 7): fixpoint solver
   properties on generated programs, liveness soundness via dead-store
   elimination against the reference interpreter, CCP hand cases, the
   use-before-init validation check, and the Tval gate (clean samples,
   caught plants, job-count determinism, corpus replay). *)

module Q = QCheck
module Lint = R2c_analysis.Lint
module Selfcheck = R2c_analysis.Selfcheck
module Tval = R2c_analysis.Tval
module Dconfig = R2c_core.Dconfig
open Ir

(* --- solver: fixpoints on generated programs --------------------------- *)

let prop_solver_fixpoint =
  Q.Test.make ~count:40 ~name:"dataflow solver reaches a fixpoint on gen-v2 programs"
    Q.(int_range 1 1_000_000)
    (fun seed ->
      let p = R2c_fuzz.Gen.v2 ~seed () in
      List.for_all
        (fun f ->
          let n = List.length f.blocks in
          let lv = Dataflow.Liveness.compute f in
          let un = Dataflow.Uninit.compute f in
          let cp = Dataflow.Constprop.compute f in
          (* The solver caps sweeps at 64 + 4n and raises past it; getting
             results back at all is the fixpoint claim. The bound check
             asserts convergence wasn't just the cap. *)
          lv.Dataflow.Liveness.iterations <= (4 * n) + 64
          && un.Dataflow.Uninit.iterations <= (4 * n) + 64
          && cp.Dataflow.Constprop.iterations <= (4 * n) + 64)
        p.funcs)

(* --- liveness soundness: DSE must preserve observables ------------------ *)

(* Delete every pure definition of a var dead immediately after it (the
   dead-store rule's findings) and re-interpret: if liveness ever called
   a live var dead, output or exit code changes. *)
let dse (p : Ir.program) =
  let funcs =
    List.map
      (fun f ->
        let lv = Dataflow.Liveness.compute f in
        let blocks = Array.of_list f.blocks in
        let blocks =
          Array.to_list
            (Array.mapi
               (fun bi b ->
                 let before = Dataflow.Liveness.before lv f bi in
                 let body =
                   List.filteri
                     (fun k instr ->
                       match instr with
                       | Mov (v, _) | Cmp (v, _, _, _) | Slot_addr (v, _)
                       | Binop
                           ( v,
                             (Add | Sub | Mul | And | Or | Xor | Shl | Shr | Sar),
                             _,
                             _ ) ->
                           Dataflow.Iset.mem v before.(k + 1)
                       | _ -> true)
                     b.body
                 in
                 { b with body })
               blocks)
        in
        { f with blocks })
      p.funcs
  in
  { p with funcs }

let observable p =
  match Interp.run ~fuel:2_000_000 p with
  | Ok r -> Printf.sprintf "%s/exit=%d" r.Interp.output r.Interp.exit_code
  | Error e -> "error:" ^ Interp.error_to_string e

let prop_liveness_sound =
  Q.Test.make ~count:40
    ~name:"dead-store elimination via liveness preserves interpreter observables"
    Q.(int_range 1 1_000_000)
    (fun seed ->
      let p = R2c_fuzz.Gen.v2 ~seed () in
      observable p = observable (dse p))

(* --- hand-built functions for the instances ----------------------------- *)

let fn ~nparams ~nvars ?(slots = [||]) blocks =
  { name = "f"; nparams; nvars; slots; blocks }

let reaching_uninit_diamond () =
  (* v1 defined on one arm of a diamond only: the join may still see the
     virtual Uninit site, the straight arm may not. *)
  let diamond ~both =
    fn ~nparams:1 ~nvars:2
      [
        { lbl = 0; body = []; term = Cond_br (Var 0, 1, 2) };
        { lbl = 1; body = [ Mov (1, Const 7) ]; term = Br 3 };
        {
          lbl = 2;
          body = (if both then [ Mov (1, Const 9) ] else []);
          term = Br 3;
        };
        { lbl = 3; body = []; term = Ret (Some (Var 1)) };
      ]
  in
  Alcotest.(check (list (triple int int int)))
    "one-arm def flagged at the join read"
    [ (1, 3, 0) ]
    (Validate.uninit_reads (diamond ~both:false));
  Alcotest.(check (list (triple int int int)))
    "both-arm def is clean"
    []
    (Validate.uninit_reads (diamond ~both:true));
  (* Around a loop: a var first defined inside the body is flagged at the
     header read the entry edge reaches; one defined before the loop is
     clean on the back edge too. *)
  let loop ~pre =
    fn ~nparams:0 ~nvars:2
      [
        { lbl = 0; body = (if pre then [ Mov (1, Const 0) ] else []); term = Br 1 };
        {
          lbl = 1;
          body = [ Binop (1, Add, Var 1, Const 1); Cmp (0, Lt, Var 1, Const 9) ];
          term = Cond_br (Var 0, 1, 2);
        };
        { lbl = 2; body = []; term = Ret (Some (Var 1)) };
      ]
  in
  Alcotest.(check (list (triple int int int)))
    "loop-header read before the first def flagged" [ (1, 1, 0) ]
    (Validate.uninit_reads (loop ~pre:false));
  Alcotest.(check (list (triple int int int)))
    "def before the loop is clean" [] (Validate.uninit_reads (loop ~pre:true))

let ccp_hand_cases () =
  (* Constants fold through arithmetic; a constant-false branch's arm is
     not executable, so facts (and lint rules) ignore it. *)
  let f =
    fn ~nparams:0 ~nvars:4 ~slots:[| 16 |]
      [
        {
          lbl = 0;
          body = [ Mov (0, Const 0); Mov (1, Const 6); Binop (2, Mul, Var 1, Const 7) ];
          term = Cond_br (Var 0, 1, 2);
        };
        (* statically dead: would otherwise flag div-by-zero and fold. *)
        { lbl = 1; body = [ Binop (3, Div, Var 2, Const 0) ]; term = Br 2 };
        { lbl = 2; body = []; term = Ret (Some (Var 2)) };
      ]
  in
  let cp = Dataflow.Constprop.compute f in
  Alcotest.(check (list bool))
    "executability: dead arm pruned" [ true; false; true ]
    (Array.to_list cp.Dataflow.Constprop.executable);
  let envs = Dataflow.Constprop.before cp f 2 in
  (match Dataflow.Constprop.eval envs.(0) (Var 2) with
  | Dataflow.Constprop.Cconst 42 -> ()
  | _ -> Alcotest.fail "6 * 7 did not fold to 42");
  (* The dead arm's divide-by-zero must not lint... *)
  let p1 = { funcs = [ { f with name = "main" } ]; globals = []; main = "main" } in
  Alcotest.(check int) "folded counts the Mul" 1 (Dataflow.program_stats p1).Dataflow.folded;
  Alcotest.(check (list string)) "no findings behind a false branch" []
    (List.map Lint.ir_finding_to_string (Lint.run_ir p1));
  (* ...but the same divide on the live path must. *)
  let live =
    fn ~nparams:0 ~nvars:3
      [
        {
          lbl = 0;
          body = [ Mov (0, Const 0); Binop (1, Add, Const 1, Const 2);
                   Binop (2, Div, Var 1, Var 0) ];
          term = Ret (Some (Var 2));
        };
      ]
  in
  let p2 = { funcs = [ { live with name = "main" } ]; globals = []; main = "main" } in
  Alcotest.(check (list string))
    "live constant zero divisor flagged"
    [ "[const-div-by-zero] main.L0#2: divisor is the constant 0" ]
    (List.map Lint.ir_finding_to_string (Lint.run_ir p2))

let slot_bounds_cases () =
  (* Cslot tracks offsets through Add/Sub, so an escape assembled from
     slot arithmetic is still caught statically. *)
  let mk off =
    let f =
      fn ~nparams:0 ~nvars:3 ~slots:[| 16 |]
        [
          {
            lbl = 0;
            body =
              [
                Slot_addr (0, 0);
                Binop (1, Add, Var 0, Const off);
                Store (Var 1, 4, Const 1);
                Load (2, Var 1, 0);
              ];
            term = Ret (Some (Var 2));
          };
        ]
    in
    { funcs = [ { f with name = "main" } ]; globals = []; main = "main" }
  in
  Alcotest.(check (list string)) "in-bounds slot arithmetic is clean" []
    (List.map Lint.ir_finding_to_string (Lint.run_ir (mk 4)));
  Alcotest.(check bool) "escaping slot arithmetic is flagged" true
    (List.exists
       (fun (fd : Lint.ir_finding) -> fd.Lint.ir_rule = "oob-const-slot-offset")
       (Lint.run_ir (mk 8)))

(* --- Validate: use before initialization -------------------------------- *)

let validate_uninit_cases () =
  let prog blocks =
    {
      funcs = [ { name = "main"; nparams = 0; nvars = 2; slots = [||]; blocks } ];
      globals = [];
      main = "main";
    }
  in
  let errs p = List.map Validate.error_to_string (Validate.check p) in
  Alcotest.(check (list string))
    "straight-line uninit read flagged"
    [ "main: var 1 read before any definition (block 0)" ]
    (errs (prog [ { lbl = 0; body = []; term = Ret (Some (Var 1)) } ]));
  Alcotest.(check (list string))
    "one-arm definition flagged at the join"
    [ "main: var 1 read before any definition (block 3)" ]
    (errs
       (prog
          [
            { lbl = 0; body = [ Mov (0, Const 1) ]; term = Cond_br (Var 0, 1, 2) };
            { lbl = 1; body = [ Mov (1, Const 7) ]; term = Br 3 };
            { lbl = 2; body = []; term = Br 3 };
            { lbl = 3; body = []; term = Ret (Some (Var 1)) };
          ]));
  Alcotest.(check (list string))
    "both-arm definition is clean" []
    (errs
       (prog
          [
            { lbl = 0; body = [ Mov (0, Const 1) ]; term = Cond_br (Var 0, 1, 2) };
            { lbl = 1; body = [ Mov (1, Const 7) ]; term = Br 3 };
            { lbl = 2; body = [ Mov (1, Const 9) ]; term = Br 3 };
            { lbl = 3; body = []; term = Ret (Some (Var 1)) };
          ]));
  (* A loop-carried var defined before the back edge is clean. *)
  Alcotest.(check (list string))
    "loop-carried definition is clean" []
    (errs
       (prog
          [
            { lbl = 0; body = [ Mov (1, Const 0) ]; term = Br 1 };
            {
              lbl = 1;
              body = [ Binop (1, Add, Var 1, Const 1); Cmp (0, Lt, Var 1, Const 9) ];
              term = Cond_br (Var 0, 1, 2);
            };
            { lbl = 2; body = []; term = Ret (Some (Var 1)) };
          ]))

(* Malformed functions: [Validate.check] reports every defect and never
   raises, even though the uninit check now runs on the fixpoint solver
   (whose sweep cap raises). [uninit_reads] itself stays total too. *)
let validate_hostile_shapes () =
  let main ?(nparams = 0) ?(nvars = 2) blocks =
    { name = "main"; nparams; nvars; slots = [||]; blocks }
  in
  let case what expected funcs =
    let p = { funcs; globals = []; main = "main" } in
    Alcotest.(check (list string)) what expected
      (List.map Validate.error_to_string (Validate.check p));
    List.iter (fun f -> ignore (Validate.uninit_reads f)) funcs
  in
  case "empty block list" [ "main: no blocks" ] [ main [] ];
  case "duplicate labels skip reachability and uninit"
    [ "main: duplicate label 1" ]
    [
      main
        [
          { lbl = 0; body = []; term = Br 1 };
          { lbl = 1; body = []; term = Ret None };
          { lbl = 1; body = []; term = Ret (Some (Var 1)) };
        ];
    ];
  Alcotest.(check (list (triple int int int)))
    "duplicate labels: no uninit report" []
    (Validate.uninit_reads
       (main
          [
            { lbl = 1; body = []; term = Ret (Some (Var 1)) };
            { lbl = 1; body = []; term = Ret None };
          ]));
  case "branch to an unknown label"
    [
      "main: branch to unknown label 7";
      "main: var 1 read before any definition (block 1)";
    ]
    [
      main
        [
          { lbl = 0; body = [ Mov (0, Const 1) ]; term = Cond_br (Var 0, 7, 1) };
          { lbl = 1; body = []; term = Ret (Some (Var 1)) };
        ];
    ];
  case "out-of-range vars, negative included"
    [
      "main: var 5 out of range";
      "main: var -1 out of range";
      "main: var 9 out of range";
      "main: var 0 read before any definition (block 0)";
    ]
    [
      main
        [
          {
            lbl = 0;
            body = [ Mov (5, Var (-1)); Binop (1, Add, Var 0, Const 1) ];
            term = Ret (Some (Var 9));
          };
        ];
    ];
  case "nparams > nvars"
    [ "g: nparams exceeds nvars"; "g: var 2 out of range" ]
    [
      main [ { lbl = 0; body = []; term = Ret None } ];
      {
        name = "g";
        nparams = 3;
        nvars = 1;
        slots = [||];
        blocks = [ { lbl = 0; body = []; term = Ret (Some (Var 2)) } ];
      };
    ]

(* --- Tval: clean samples, caught plants, determinism -------------------- *)

let check_clean name cfg p =
  let r = Tval.validate_config cfg p in
  Alcotest.(check (list string))
    (name ^ " findings")
    []
    (List.map Tval.finding_to_string r.Tval.findings);
  Alcotest.(check bool) (name ^ " validated blocks") true (r.Tval.blocks > 0)

let tval_smoke () =
  check_clean "arith/baseline" Dconfig.baseline Samples.arith_prog;
  check_clean "arith/full" (Dconfig.full ()) Samples.arith_prog;
  check_clean "fib/baseline" Dconfig.baseline (Samples.fib_prog 10);
  check_clean "fib/full" (Dconfig.full ()) (Samples.fib_prog 10);
  check_clean "loop/full" (Dconfig.full ()) (Samples.loop_prog 8);
  check_clean "carrier/full-checked" Dconfig.full_checked (Selfcheck.carrier ())

let prop_tval_gen_clean =
  Q.Test.make ~count:12 ~name:"tval clean on gen-v2 programs under full R2C"
    Q.(int_range 1 1_000_000)
    (fun seed ->
      let p = R2c_fuzz.Gen.v2 ~seed () in
      let r = Tval.validate_config (Dconfig.full ()) p in
      r.Tval.findings = [] && r.Tval.blocks > 0)

let validate_planted ?(seed = 3) cfg plant p =
  let planted = R2c_fuzz.Oracle.apply_plant plant p in
  let img, meta, p' = R2c_core.Pipeline.compile_with_meta ~seed cfg planted in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        match Ir.find_func p f.Ir.name with Some o -> o | None -> f)
      p'.Ir.funcs
  in
  Tval.validate ~img ~meta { p' with Ir.funcs }

let tval_plants () =
  List.iter
    (fun (name, plant, p) ->
      let r = validate_planted Dconfig.baseline plant p in
      Alcotest.(check bool) (name ^ " caught") true (r.Tval.findings <> []))
    [
      ("sub-to-add", R2c_fuzz.Oracle.Sub_to_add, Samples.arith_prog);
      ("off-by-one", R2c_fuzz.Oracle.Off_by_one, Samples.loop_prog 8);
    ];
  let r =
    validate_planted (Dconfig.full ()) R2c_fuzz.Oracle.Drop_stores (Samples.loop_prog 8)
  in
  Alcotest.(check bool) "drop-stores caught" true (r.Tval.findings <> [])

let ir_selfcheck_wired () =
  List.iter
    (fun (o : Selfcheck.ir_outcome) ->
      Alcotest.(check (list string))
        (Selfcheck.ir_mutation_to_string o.ir_mutation ^ " trips exactly its rule")
        [ o.ir_expected ] o.ir_rules_hit;
      Alcotest.(check bool)
        (Selfcheck.ir_mutation_to_string o.ir_mutation ^ " ok")
        true o.ir_ok)
    (Selfcheck.run_ir ())

(* The whole Tvalbench report — findings, plant catches, corpus — must be
   identical at any Domain-pool width (the CLI's --jobs 1 vs R2C_JOBS=8
   contract, checked here at the library level). *)
let tval_jobs_deterministic () =
  let r1 = R2c_harness.Tvalbench.run ~seed:3 ~jobs:1 () in
  let r8 = R2c_harness.Tvalbench.run ~seed:3 ~jobs:8 () in
  Alcotest.(check bool) "reports identical at jobs=1 vs jobs=8" true (r1 = r8);
  Alcotest.(check (list (pair string string))) "gate clean" [] (R2c_harness.Tvalbench.gate r1);
  Alcotest.(check int) "17 workloads" 17 (List.length r1.R2c_harness.Tvalbench.workloads)

(* Replay every committed fuzz reproducer through the validator: a
   divergence the fuzzer once caught dynamically must not regress into
   one the validator misses. Vacuous while the corpus is empty. *)
let tval_corpus_replay () =
  List.iter
    (fun path ->
      match R2c_fuzz.Corpus.load path with
      | Error e -> Alcotest.fail (path ^ ": " ^ e)
      | Ok p ->
          Alcotest.(check (list string))
            (path ^ " validate") []
            (List.map Validate.error_to_string (Validate.check p));
          check_clean path (Dconfig.full ()) p)
    (R2c_fuzz.Corpus.files ~dir:"corpus")

let suite =
  [
    ( "dataflow",
      List.map QCheck_alcotest.to_alcotest
        [ prop_solver_fixpoint; prop_liveness_sound; prop_tval_gen_clean ]
      @ [
          Alcotest.test_case "reaching: uninit through a diamond" `Quick
            reaching_uninit_diamond;
          Alcotest.test_case "ccp: folding + executability pruning" `Quick ccp_hand_cases;
          Alcotest.test_case "ccp: slot bounds through arithmetic" `Quick slot_bounds_cases;
          Alcotest.test_case "validate: use before initialization" `Quick
            validate_uninit_cases;
          Alcotest.test_case "validate: hostile shapes never raise" `Quick
            validate_hostile_shapes;
          Alcotest.test_case "tval: smoke on samples" `Quick tval_smoke;
          Alcotest.test_case "tval: plants caught" `Quick tval_plants;
          Alcotest.test_case "selfcheck: IR mutations trip exactly their rule" `Quick
            ir_selfcheck_wired;
          Alcotest.test_case "tvalbench: job-count determinism + clean gate" `Slow
            tval_jobs_deterministic;
          Alcotest.test_case "tval: corpus replay" `Quick tval_corpus_replay;
        ] );
  ]
