(* Static auditor tests: CFG recovery, the invariant linter, the
   sanitizer-wiring self-check and the gadget scanner, plus the IR
   validator's reachability diagnostics. *)

open R2c_machine
module Lint = R2c_analysis.Lint
module Cfg = R2c_analysis.Cfg
module Gadget = R2c_analysis.Gadget
module Selfcheck = R2c_analysis.Selfcheck
module Defenses = R2c_defenses.Defenses
module Dconfig = R2c_core.Dconfig

let baseline_img = lazy (R2c_workloads.Vulnapp.build ~seed:4 Dconfig.baseline)
let full_img = lazy (Defenses.build_vulnapp Defenses.r2c ~seed:4)
let checked_img = lazy (Defenses.build_vulnapp Defenses.r2c_checked ~seed:4)

let full_expect = Lint.expect_of_dconfig (Dconfig.full ())
let checked_expect = Lint.expect_of_dconfig Dconfig.full_checked

(* --- CFG recovery ------------------------------------------------------ *)

let test_cfg_well_formed () =
  let img = Lazy.force baseline_img in
  let cfg = Cfg.recover img in
  Alcotest.(check bool) "found functions" true (List.length cfg.Cfg.funcs > 1);
  List.iter
    (fun (fc : Cfg.func) ->
      (match fc.fc_blocks with
      | first :: _ ->
          Alcotest.(check int) "first block at entry" fc.fc_entry first.Cfg.b_entry
      | [] -> Alcotest.fail (fc.fc_name ^ ": no blocks"));
      List.iter
        (fun (b : Cfg.block) ->
          List.iter
            (fun s ->
              Alcotest.(check bool) "successor inside function" true
                (s >= fc.fc_entry && s < fc.fc_entry + fc.fc_len))
            b.b_succs)
        fc.fc_blocks)
    cfg.Cfg.funcs;
  match Hashtbl.find_opt cfg.Cfg.call_graph "_start" with
  | Some callees -> Alcotest.(check bool) "_start calls main" true (List.mem "main" callees)
  | None -> Alcotest.fail "_start missing from call graph"

let test_cfg_diversified_grows () =
  let base = Cfg.stats (Cfg.recover (Lazy.force baseline_img)) in
  let full = Cfg.stats (Cfg.recover (Lazy.force full_img)) in
  (* Booby-trap functions and prolog traps add functions and blocks. *)
  Alcotest.(check bool) "more functions" true (full.Cfg.n_funcs > base.Cfg.n_funcs);
  Alcotest.(check bool) "more blocks" true (full.Cfg.n_blocks > base.Cfg.n_blocks)

(* --- Linter ------------------------------------------------------------ *)

let check_clean what expect img =
  match Lint.run ~expect img with
  | [] -> ()
  | fs ->
      Alcotest.fail
        (Printf.sprintf "%s: %d findings, first: %s" what (List.length fs)
           (Lint.finding_to_string (List.hd fs)))

let test_lint_clean_baseline () =
  check_clean "baseline" (Lint.expect_of_dconfig Dconfig.baseline) (Lazy.force baseline_img)

let test_lint_clean_full () = check_clean "full r2c" full_expect (Lazy.force full_img)

let test_lint_clean_checked () =
  check_clean "r2c-checked" checked_expect (Lazy.force checked_img)

let test_lint_flags_rwx_text () =
  let rwx = { Perm.read = true; write = true; exec = true } in
  let img = { (Lazy.force baseline_img) with Image.text_perm = rwx } in
  let fs = Lint.run ~expect:(Lint.expect_of_dconfig Dconfig.baseline) img in
  Alcotest.(check bool) "rwx flagged" true
    (List.exists (fun (f : Lint.finding) -> f.rule = "wx") fs)

let rules_of fs = List.sort_uniq compare (List.map (fun (f : Lint.finding) -> f.rule) fs)

let test_mutation_flagged m () =
  let img = Selfcheck.apply m (Lazy.force checked_img) in
  let fs = Lint.run ~expect:checked_expect img in
  let expected =
    (List.find (fun (o : Selfcheck.outcome) -> o.mutation = m)
       (Selfcheck.run ~expect:checked_expect (Lazy.force checked_img)))
      .expected
  in
  Alcotest.(check bool) "findings present" true (fs <> []);
  Alcotest.(check (list string)) "exactly the expected rule" [ expected ] (rules_of fs)

let test_selfcheck_all_ok () =
  let outcomes = Selfcheck.run ~expect:checked_expect (Lazy.force checked_img) in
  Alcotest.(check int) "three mutations" 3 (List.length outcomes);
  List.iter
    (fun (o : Selfcheck.outcome) ->
      Alcotest.(check bool) (Selfcheck.mutation_to_string o.mutation) true o.ok)
    outcomes

(* --- Compiler metadata the rules depend on ----------------------------- *)

let test_checked_sites_metadata () =
  let checked = Lazy.force checked_img in
  Alcotest.(check bool) "checked image records checked sites" true
    (Hashtbl.length (Image.sites checked).checked_sites > 0);
  Hashtbl.iter
    (fun ra () ->
      Alcotest.(check bool) "checked site is an unwind site" true
        (Hashtbl.mem (Image.sites checked).unwind_sites ra))
    (Image.sites checked).checked_sites;
  let full = Lazy.force full_img in
  Alcotest.(check int) "unchecked config records none" 0
    (Hashtbl.length (Image.sites full).checked_sites)

let test_code_ptr_slots_metadata () =
  let img = Lazy.force baseline_img in
  (* vulnapp's service table is a sanctioned function-pointer population. *)
  Alcotest.(check bool) "sanctioned slots recorded" true
    (Hashtbl.length (Lazy.force img.Image.code_ptr_slots) > 0)

(* --- Gadget scanner ---------------------------------------------------- *)

let test_gadget_scan_deterministic () =
  let img = Lazy.force baseline_img in
  let a = Gadget.scan img and b = Gadget.scan img in
  Alcotest.(check bool) "found gadgets" true (a <> []);
  Alcotest.(check int) "deterministic" (List.length a) (List.length b);
  Alcotest.(check int) "self-intersection is total" (List.length a)
    (List.length (Gadget.survivors [ a; b ]))

let test_gadget_survivors_shrink () =
  let scans =
    List.map
      (fun seed -> Gadget.scan (Defenses.build_vulnapp Defenses.r2c ~seed))
      [ 2; 3; 5; 7 ]
  in
  let min_count = List.fold_left (fun acc g -> min acc (List.length g)) max_int scans in
  Alcotest.(check bool) "each variant has gadgets" true (min_count > 0);
  Alcotest.(check bool) "survivors strictly below any single variant" true
    (List.length (Gadget.survivors scans) < min_count)

(* --- IR validator reachability diagnostics ----------------------------- *)

let prog_of_blocks blocks =
  {
    Ir.funcs = [ { Ir.name = "main"; nparams = 0; nvars = 0; slots = [||]; blocks } ];
    globals = [];
    main = "main";
  }

let test_validate_unreachable_block () =
  let blocks =
    [
      { Ir.lbl = 0; body = []; term = Ir.Ret (Some (Ir.Const 0)) };
      { Ir.lbl = 1; body = []; term = Ir.Br 0 };
    ]
  in
  let errs = List.map Validate.error_to_string (Validate.check (prog_of_blocks blocks)) in
  Alcotest.(check bool) "unreachable reported" true
    (List.exists (fun e -> e = "main: unreachable block 1") errs)

let test_validate_reachable_loop () =
  (* A cycle reachable from the entry is fine. *)
  let blocks =
    [
      { Ir.lbl = 0; body = []; term = Ir.Br 1 };
      { Ir.lbl = 1; body = []; term = Ir.Cond_br (Ir.Const 1, 0, 2) };
      { Ir.lbl = 2; body = []; term = Ir.Ret (Some (Ir.Const 0)) };
    ]
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length (Validate.check (prog_of_blocks blocks)))

let test_validate_duplicate_label () =
  let blocks =
    [
      { Ir.lbl = 0; body = []; term = Ir.Ret (Some (Ir.Const 0)) };
      { Ir.lbl = 0; body = []; term = Ir.Ret (Some (Ir.Const 0)) };
    ]
  in
  let errs = List.map Validate.error_to_string (Validate.check (prog_of_blocks blocks)) in
  Alcotest.(check bool) "duplicate reported" true
    (List.exists (fun e -> e = "main: duplicate label 0") errs);
  (* Reachability is skipped under duplicated labels, not spammed. *)
  Alcotest.(check bool) "no unreachable spam" false
    (List.exists (fun e -> e = "main: unreachable block 0") errs)

let suite =
  [
    ( "audit-cfg",
      [
        Alcotest.test_case "recovered CFG well-formed" `Quick test_cfg_well_formed;
        Alcotest.test_case "diversification grows the CFG" `Quick test_cfg_diversified_grows;
      ] );
    ( "audit-lint",
      [
        Alcotest.test_case "baseline lints clean" `Quick test_lint_clean_baseline;
        Alcotest.test_case "full r2c lints clean" `Quick test_lint_clean_full;
        Alcotest.test_case "r2c-checked lints clean" `Quick test_lint_clean_checked;
        Alcotest.test_case "rwx text flagged" `Quick test_lint_flags_rwx_text;
        Alcotest.test_case "dropped post-check -> btra" `Quick
          (test_mutation_flagged Selfcheck.Drop_btra_postcheck);
        Alcotest.test_case "skipped mprotect -> wx" `Quick
          (test_mutation_flagged Selfcheck.Skip_mprotect);
        Alcotest.test_case "planted pointer -> ptr" `Quick
          (test_mutation_flagged Selfcheck.Plant_code_pointer);
        Alcotest.test_case "selfcheck wiring" `Quick test_selfcheck_all_ok;
        Alcotest.test_case "checked-site metadata" `Quick test_checked_sites_metadata;
        Alcotest.test_case "sanctioned-slot metadata" `Quick test_code_ptr_slots_metadata;
      ] );
    ( "audit-gadget",
      [
        Alcotest.test_case "scan deterministic" `Quick test_gadget_scan_deterministic;
        Alcotest.test_case "survivors shrink" `Quick test_gadget_survivors_shrink;
      ] );
    ( "audit-validate",
      [
        Alcotest.test_case "unreachable block" `Quick test_validate_unreachable_block;
        Alcotest.test_case "reachable loop" `Quick test_validate_reachable_loop;
        Alcotest.test_case "duplicate label" `Quick test_validate_duplicate_label;
      ] );
  ]
