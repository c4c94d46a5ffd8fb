module Reference = R2c_attacks.Reference
module Report = R2c_attacks.Report
module Rop = R2c_attacks.Rop
module Jitrop = R2c_attacks.Jitrop
module Indirect_jitrop = R2c_attacks.Indirect_jitrop
module Aocr = R2c_attacks.Aocr
module Pirop = R2c_attacks.Pirop
module Blindrop = R2c_attacks.Blindrop
module Suite = R2c_attacks.Suite
module Defenses = R2c_defenses.Defenses
module Vulnapp = R2c_workloads.Vulnapp
module Rng = R2c_util.Rng
module Process = R2c_machine.Process

let check_result name ~expect_success ?expect_detected (r : Report.t) =
  Alcotest.(check bool)
    (Printf.sprintf "%s success (%s)" name (Report.to_string r))
    expect_success r.Report.success;
  match expect_detected with
  | Some d -> Alcotest.(check bool) (name ^ " detected") d r.Report.detected
  | None -> ()

let rate (runs : Report.t list) = List.length (List.filter (fun r -> r.Report.success) runs)

let trials n f = List.init n (fun i -> f (i + 1))

(* --- benign behaviour under every defense model --- *)

let test_vulnapp_benign () =
  let expected =
    match Interp.run ~input:[] (Vulnapp.program ()) with
    | Ok r -> r.Interp.output
    | Error e -> Alcotest.failf "interp: %s" (Interp.error_to_string e)
  in
  List.iter
    (fun (d : Defenses.t) ->
      let img = Defenses.build_vulnapp d ~seed:3 in
      let proc = Process.start img in
      (match Process.run proc with
      | Process.Exited 0 -> ()
      | o -> Alcotest.failf "%s: %s" d.Defenses.name (Process.outcome_to_string o));
      Alcotest.(check string) (d.Defenses.name ^ " output") expected (Process.output proc))
    Defenses.all

let test_reference_measure_all_models () =
  List.iter
    (fun (d : Defenses.t) ->
      let r = Reference.measure (Defenses.build_vulnapp d ~seed:11) in
      Alcotest.(check bool) (d.Defenses.name ^ " ra_off sane") true (r.Reference.ra_off > 0);
      Alcotest.(check bool)
        (d.Defenses.name ^ " buf below ra")
        true
        (r.Reference.buf_off < r.Reference.ra_off);
      Alcotest.(check bool)
        (d.Defenses.name ^ " gadget found")
        true
        (r.Reference.pop_rdi <> None))
    Defenses.all

(* --- classic ROP --- *)

let test_rop_vs_unprotected () =
  (* Identical binaries: reference knowledge is exact. *)
  let reference, target = Suite.scenario ~reference_seed:99 Defenses.unprotected ~seed:5 in
  check_result "rop vs unprotected" ~expect_success:true (Rop.run ~reference ~target)

let test_rop_vs_r2c () =
  let runs =
    trials 5 (fun seed ->
        let reference, target = Suite.scenario Defenses.r2c ~seed in
        Rop.run ~reference ~target)
  in
  Alcotest.(check int) "rop never succeeds vs R2C" 0 (rate runs)

let test_rop_vs_aslr_fails () =
  let runs =
    trials 3 (fun seed ->
        let reference, target = Suite.scenario Defenses.aslr ~seed in
        Rop.run ~reference ~target)
  in
  Alcotest.(check int) "rop blind vs ASLR fails" 0 (rate runs)

(* --- JIT-ROP --- *)

let test_jitrop_vs_unprotected () =
  let reference, target = Suite.scenario Defenses.unprotected ~seed:2 in
  check_result "jitrop vs unprotected" ~expect_success:true (Jitrop.run ~reference ~target)

let test_jitrop_vs_aslr () =
  (* Runtime disclosure defeats sliding. *)
  let reference, target = Suite.scenario Defenses.aslr ~seed:4 in
  check_result "jitrop vs aslr" ~expect_success:true (Jitrop.run ~reference ~target)

let test_jitrop_vs_xom () =
  (* Execute-only memory stops the disclosure read. *)
  List.iter
    (fun d ->
      let reference, target = Suite.scenario d ~seed:6 in
      let r = Jitrop.run ~reference ~target in
      check_result ("jitrop vs " ^ d.Defenses.name) ~expect_success:false r;
      Alcotest.(check bool)
        (d.Defenses.name ^ ": disclosure crashed")
        true
        (r.Report.crashes > 0 || r.Report.notes <> []))
    [ Defenses.readactor; Defenses.r2c ]

(* --- indirect JIT-ROP --- *)

let test_indirect_vs_aslr () =
  let reference, target = Suite.scenario Defenses.aslr ~seed:8 in
  check_result "indirect vs aslr" ~expect_success:true
    (Indirect_jitrop.run ~reference ~target)

let test_indirect_vs_shuffling () =
  let runs =
    trials 4 (fun seed ->
        let reference, target = Suite.scenario Defenses.readactor ~seed in
        Indirect_jitrop.run ~reference ~target)
  in
  Alcotest.(check int) "indirect vs readactor fails" 0 (rate runs)

let test_indirect_vs_r2c () =
  let runs =
    trials 5 (fun seed ->
        let reference, target = Suite.scenario Defenses.r2c ~seed in
        Indirect_jitrop.run ~reference ~target)
  in
  Alcotest.(check int) "indirect vs R2C fails" 0 (rate runs)

(* --- AOCR --- *)

let test_aocr_vs_unprotected () =
  let reference, target = Suite.scenario Defenses.unprotected ~seed:10 in
  check_result "aocr vs unprotected" ~expect_success:true
    (Aocr.run ~rng:(Rng.create 1) ~reference ~target ())

let test_aocr_vs_aslr () =
  let reference, target = Suite.scenario Defenses.aslr ~seed:12 in
  check_result "aocr vs aslr" ~expect_success:true
    (Aocr.run ~rng:(Rng.create 2) ~reference ~target ())

let test_aocr_vs_readactor () =
  (* The paper's headline: AOCR defeats leakage-resilient code-only
     diversification. *)
  let reference, target = Suite.scenario Defenses.readactor ~seed:14 in
  check_result "aocr vs readactor" ~expect_success:true
    (Aocr.run ~rng:(Rng.create 3) ~reference ~target ())

let test_aocr_vs_tasr () =
  (* Re-randomizing code does not help: AOCR is address-oblivious. *)
  let reference, target = Suite.scenario Defenses.tasr ~seed:16 in
  check_result "aocr vs tasr" ~expect_success:true
    (Aocr.run ~rng:(Rng.create 4) ~reference ~target ())

let test_aocr_vs_r2c () =
  let runs =
    trials 8 (fun seed ->
        let reference, target = Suite.scenario Defenses.r2c ~seed in
        Aocr.run ~rng:(Rng.create (seed * 31)) ~reference ~target ())
  in
  Alcotest.(check int) "aocr vs R2C never succeeds" 0 (rate runs);
  (* The reactive component: BTDP guard pages catch most campaigns. *)
  let detections = List.length (List.filter (fun r -> r.Report.detected) runs) in
  Alcotest.(check bool)
    (Printf.sprintf "aocr vs R2C mostly detected (%d/8)" detections)
    true (detections >= 4)

(* --- PIROP --- *)

let test_pirop_vs_aslr () =
  let reference, target = Suite.scenario Defenses.aslr ~seed:18 in
  check_result "pirop vs aslr" ~expect_success:true
    (Pirop.run ~reference ~target ())

let test_pirop_vs_r2c () =
  let runs =
    trials 5 (fun seed ->
        let reference, target = Suite.scenario Defenses.r2c ~seed in
        Pirop.run ~reference ~target ())
  in
  Alcotest.(check int) "pirop vs R2C fails" 0 (rate runs)

(* --- Blind ROP --- *)

let test_blindrop_vs_unprotected () =
  let target = Suite.target Defenses.unprotected ~seed:20 in
  check_result "blindrop vs unprotected" ~expect_success:true
    (Blindrop.run ~probe_budget:6000 ~target ())

let test_blindrop_vs_r2c_detected () =
  (* BROP's precondition is a non-PIE worker-respawning server; R2C's
     booby traps are what stops it there (Section 4.1). *)
  let target = Suite.target Defenses.r2c_nopie ~seed:22 in
  let r = Blindrop.run ~probe_budget:20000 ~target () in
  check_result "blindrop vs R2C" ~expect_success:false ~expect_detected:true r

(* --- the suite registry --- *)

let test_suite_registry () =
  (* Every spelling r2c-attack has accepted resolves, and together they
     name every entry exactly once. *)
  let spellings =
    [ "rop"; "jitrop"; "indirect-jitrop"; "aocr"; "pirop"; "blindrop"; "race"; "ra-zeroing" ]
  in
  let resolved =
    List.map
      (fun s ->
        match Suite.find s with
        | Some (name, _) -> name
        | None -> Alcotest.failf "%s does not resolve" s)
      spellings
  in
  Alcotest.(check (list string))
    "every entry, once" (List.sort compare (List.map fst Suite.all)) (List.sort compare resolved);
  Alcotest.(check bool) "case ignored" true (Suite.find "JIT-ROP" <> None);
  Alcotest.(check bool) "unknown" true (Suite.find "brop" = None);
  (* The monoculture baseline falls to every attack. *)
  List.iter
    (fun (name, run) ->
      check_result (name ^ " vs unprotected") ~expect_success:true
        (run Defenses.unprotected ~seed:2))
    Suite.all

let suite =
  [
    ( "attacks",
      [
        Alcotest.test_case "vulnapp benign everywhere" `Quick test_vulnapp_benign;
        Alcotest.test_case "reference measurement" `Quick test_reference_measure_all_models;
        Alcotest.test_case "rop vs unprotected" `Quick test_rop_vs_unprotected;
        Alcotest.test_case "rop vs r2c" `Quick test_rop_vs_r2c;
        Alcotest.test_case "rop vs aslr" `Quick test_rop_vs_aslr_fails;
        Alcotest.test_case "jitrop vs unprotected" `Quick test_jitrop_vs_unprotected;
        Alcotest.test_case "jitrop vs aslr" `Quick test_jitrop_vs_aslr;
        Alcotest.test_case "jitrop vs xom" `Quick test_jitrop_vs_xom;
        Alcotest.test_case "indirect vs aslr" `Quick test_indirect_vs_aslr;
        Alcotest.test_case "indirect vs shuffling" `Quick test_indirect_vs_shuffling;
        Alcotest.test_case "indirect vs r2c" `Quick test_indirect_vs_r2c;
        Alcotest.test_case "aocr vs unprotected" `Quick test_aocr_vs_unprotected;
        Alcotest.test_case "aocr vs aslr" `Quick test_aocr_vs_aslr;
        Alcotest.test_case "aocr vs readactor" `Quick test_aocr_vs_readactor;
        Alcotest.test_case "aocr vs tasr" `Quick test_aocr_vs_tasr;
        Alcotest.test_case "aocr vs r2c" `Quick test_aocr_vs_r2c;
        Alcotest.test_case "pirop vs aslr" `Quick test_pirop_vs_aslr;
        Alcotest.test_case "pirop vs r2c" `Quick test_pirop_vs_r2c;
        Alcotest.test_case "blindrop vs unprotected" `Quick test_blindrop_vs_unprotected;
        Alcotest.test_case "blindrop vs r2c detected" `Quick test_blindrop_vs_r2c_detected;
        Alcotest.test_case "suite registry" `Quick test_suite_registry;
      ] );
  ]
