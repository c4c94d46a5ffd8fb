(* Tests for the extension features: SSE/AVX-512 setups (Section 7.1), the
   naive race window (Section 5.1), RA-zeroing + consistency checks and
   load-time re-randomization (Section 7.3). *)

module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
module Report = R2c_attacks.Report
module Race = R2c_attacks.Race
module Ra_zeroing = R2c_attacks.Ra_zeroing
module Suite = R2c_attacks.Suite
module Dconfig = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
open R2c_machine

let interp_ref p =
  match Interp.run p with
  | Ok r -> r
  | Error e -> Alcotest.failf "interp: %s" (Interp.error_to_string e)

let check_differential ~cfg ~seed name p =
  let r = interp_ref p in
  let img = Pipeline.compile ~seed cfg p in
  let proc = Process.start ~strict_align:true img in
  (match Process.run proc with
  | Process.Exited code -> Alcotest.(check int) (name ^ ": exit") r.Interp.exit_code code
  | o -> Alcotest.failf "%s: %s" name (Process.outcome_to_string o));
  Alcotest.(check string) (name ^ ": output") r.Interp.output (Process.output proc)

(* --- new setup flavours still compile correct binaries --- *)

let test_differential_new_setups () =
  List.iter
    (fun (cname, cfg) ->
      List.iter
        (fun (name, p) -> check_differential ~cfg ~seed:5 (cname ^ "/" ^ name) p)
        Samples.all)
    [
      ("sse", Dconfig.btra_sse_only);
      ("avx512", Dconfig.btra_avx512_only);
      ("naive", Dconfig.full ~setup:Dconfig.Naive ());
      ("checked", Dconfig.full_checked);
      ("full-sse", Dconfig.full ~setup:Dconfig.Sse ());
      ("full-avx512", Dconfig.full ~setup:Dconfig.Avx512 ());
    ]

let steady_cycles img =
  (R2c_harness.Measure.run img).R2c_harness.Measure.steady_cycles

let test_avx512_halves_the_gap () =
  (* Section 7.1: with 64-byte moves "we could either half the BTRA
     performance impact, or use twice as many BTRAs". *)
  let p = (R2c_workloads.Spec.find "nab").R2c_workloads.Spec.program in
  let base = steady_cycles (R2c_compiler.Driver.compile p) in
  let overhead cfg = (steady_cycles (Pipeline.compile ~seed:7 cfg p) /. base) -. 1.0 in
  let avx = overhead Dconfig.btra_avx_only in
  let avx512 = overhead Dconfig.btra_avx512_only in
  let sse = overhead Dconfig.btra_sse_only in
  Alcotest.(check bool)
    (Printf.sprintf "avx512 (%.3f) < avx (%.3f) < sse (%.3f)" avx512 avx sse)
    true
    (avx512 < avx && avx < sse);
  (* Twice the BTRAs under AVX-512 costs about what 10 cost under AVX. *)
  let avx512_double =
    overhead
      {
        Dconfig.btra_avx512_only with
        btra =
          Some
            {
              Dconfig.total = 20;
              setup = Dconfig.Avx512;
              to_builtins = true;
              max_post = 4;
              check_after_return = false;
            };
      }
  in
  Alcotest.(check bool)
    (Printf.sprintf "20 BTRAs on avx512 (%.3f) within 1.6x of 10 on avx (%.3f)" avx512_double
       avx)
    true
    (avx512_double < avx *. 1.6)

(* --- race window (Section 5.1) --- *)

let test_race_beats_naive () =
  let target = Suite.target Defenses.r2c_naive ~seed:6 in
  let r = Race.run ~target in
  Alcotest.(check bool)
    ("race vs naive: " ^ Report.to_string r)
    true r.Report.success

let test_race_fails_against_r2c () =
  List.iter
    (fun seed ->
      let target = Suite.target Defenses.r2c ~seed in
      let r = Race.run ~target in
      Alcotest.(check bool)
        ("race vs R2C: " ^ Report.to_string r)
        false r.Report.success)
    [ 6; 7; 8 ]

let test_race_fails_against_push_r2c () =
  let d = { Defenses.r2c with Defenses.cfg = Dconfig.full ~setup:Dconfig.Push () } in
  let target = Suite.target d ~seed:9 in
  let r = Race.run ~target in
  Alcotest.(check bool) ("race vs push R2C: " ^ Report.to_string r) false r.Report.success

(* --- RA zeroing (Section 7.3) --- *)

let test_ra_zeroing_discloses_without_checks () =
  (* The paper admits this as remaining attack surface. *)
  let successes =
    List.filter
      (fun seed ->
        let target = Suite.target Defenses.r2c_nopie ~seed in
        (Ra_zeroing.run ~target).Report.success)
      [ 3; 4; 5; 6 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "discloses in %d/4 campaigns" (List.length successes))
    true
    (List.length successes >= 3)

let test_ra_zeroing_checks_detect () =
  (* With consistency checks, zeroed BTRAs trap on the way out. *)
  let results =
    List.map
      (fun seed ->
        let target = Suite.target Defenses.r2c_checked_nopie ~seed in
        Ra_zeroing.run ~target)
      [ 3; 4; 5; 6; 7; 8 ]
  in
  let detected = List.length (List.filter (fun r -> r.Report.detected) results) in
  Alcotest.(check bool)
    (Printf.sprintf "checks detect most campaigns (%d/6)" detected)
    true (detected >= 3)

let test_rerandomization_stops_restart_probing () =
  (* Section 7.3: "Both attacks could be prevented by load time
     re-randomization" — every respawn changes the layout, so cross-restart
     probing learns nothing. *)
  let d = Defenses.r2c_rerand in
  let counter = ref 0 in
  let relink () =
    incr counter;
    Defenses.build_vulnapp d ~seed:(500 + !counter)
  in
  let target = Oracle.attach ~relink (Defenses.build_vulnapp d ~seed:500) in
  let r = Ra_zeroing.run ~target in
  Alcotest.(check bool) ("zeroing vs rerand: " ^ Report.to_string r) false r.Report.success

(* --- checked BTRAs still behave (differential) and catch corruption --- *)

let test_check_fires_on_corrupted_btra () =
  (* Directly corrupt a live pre-BTRA of main's call site and let the
     request return: the consistency check must trap. *)
  let img = Defenses.build_vulnapp Defenses.r2c_checked ~seed:11 in
  let truth = R2c_attacks.Reference.measure img in
  let target = Oracle.attach img in
  (match Oracle.to_serving target with Ok () -> () | Error e -> Alcotest.fail e);
  (* Zero every live pre-BTRA above the frame's return address: one of
     them is the checked one. *)
  let base = Oracle.rsp target in
  let ra_off = truth.R2c_attacks.Reference.ra_off in
  let values = Oracle.leak_at target ~addr:base ~words:((ra_off / 8) + 12) in
  Array.iteri
    (fun i v ->
      let off = 8 * i in
      if off > ra_off && Addr.region_of v = Addr.Text then
        match Oracle.arb_write target (base + off) 0 with Ok () | Error _ -> ())
    values;
  match Oracle.resume_to_end target with
  | Process.Crashed (Fault.Booby_trap _) ->
      Alcotest.(check bool) "detected" true (Oracle.detected target)
  | o -> Alcotest.failf "expected check trap, got %s" (Process.outcome_to_string o)

(* --- CFI / shadow stack (Section 8.2) --- *)

let scenario d ~seed = Suite.scenario ~reference_seed:(seed + 700) d ~seed

let test_cfi_differential () =
  (* Programs behave identically under the shadow stack. *)
  List.iter
    (fun (name, p) ->
      let r = interp_ref p in
      let img = Defenses.build Defenses.cfi ~seed:4 ~extra_raw:[] p in
      let proc = Process.start ~strict_align:true img in
      (match Process.run proc with
      | Process.Exited code -> Alcotest.(check int) (name ^ " exit") r.Interp.exit_code code
      | o -> Alcotest.failf "%s: %s" name (Process.outcome_to_string o));
      Alcotest.(check string) (name ^ " out") r.Interp.output (Process.output proc))
    Samples.all

let test_cfi_stops_rop () =
  let reference, target = scenario Defenses.cfi ~seed:12 in
  let r = R2c_attacks.Rop.run ~reference ~target in
  Alcotest.(check bool) ("rop vs CFI: " ^ Report.to_string r) false r.Report.success;
  Alcotest.(check bool) "violation detected" true r.Report.detected

let test_cfi_misses_aocr () =
  (* Whole-function reuse through a corrupted forward edge sails past the
     shadow stack — Section 8.2's caveat, and the reason R2C exists. *)
  let reference, target = scenario Defenses.cfi ~seed:14 in
  let r =
    R2c_attacks.Aocr.run ~rng:(R2c_util.Rng.create 5) ~reference ~target
  in
  Alcotest.(check bool) ("aocr vs CFI: " ^ Report.to_string r) true r.Report.success

let test_r2c_cfi_compose () =
  (* The composition stops both attack families. *)
  let reference, target = scenario Defenses.r2c_cfi ~seed:16 in
  let rop = R2c_attacks.Rop.run ~reference ~target in
  Alcotest.(check bool) "rop fails" false rop.Report.success;
  let reference, target = scenario Defenses.r2c_cfi ~seed:17 in
  let aocr =
    R2c_attacks.Aocr.run ~rng:(R2c_util.Rng.create 6) ~reference ~target
  in
  Alcotest.(check bool) ("aocr vs R2C+CFI: " ^ Report.to_string aocr) false
    aocr.Report.success

let test_shadow_stack_mechanics () =
  (* A hand-made return-address overwrite trips the shadow check with a
     CFI fault specifically. Stack offsets are stable under the
     baseline+aslr config, so the reference's ra_off locates the frame's
     return address on the target. *)
  let reference, target = scenario Defenses.cfi ~seed:18 in
  (match Oracle.to_serving target with Ok () -> () | Error e -> Alcotest.fail e);
  let slot = Oracle.rsp target + reference.R2c_attacks.Reference.ra_off in
  (* Redirect the return into some other executable byte. *)
  (match Oracle.arb_write target slot (Oracle.rsp target) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "write failed: %s" (Fault.to_string f));
  match Oracle.resume_to_end target with
  | Process.Crashed (Fault.Cfi_violation _) -> ()
  | o -> Alcotest.failf "expected CFI violation, got %s" (Process.outcome_to_string o)

(* --- MVEE (Section 7.3) --- *)

let mvee_defense = { Defenses.r2c with Defenses.cfg = Dconfig.layout_only }

let mvee_build ~seed = Defenses.build_vulnapp mvee_defense ~seed

let test_mvee_benign_consistent () =
  match
    R2c_defenses.Mvee.run ~build:mvee_build ~seeds:[ 1; 2; 3; 4 ]
      ~inputs:[ "hello"; "world" ]
  with
  | R2c_defenses.Mvee.Consistent (Process.Exited 0) -> ()
  | v -> Alcotest.failf "expected consistency: %s" (R2c_defenses.Mvee.verdict_to_string v)

let test_mvee_detects_tailored_exploit () =
  (* Craft a ROP payload against variant 1's exact layout: it owns variant
     1 but diverges on variant 2 — the MVEE's detection signal. *)
  let v1 = mvee_build ~seed:1 in
  let reference = R2c_attacks.Reference.measure v1 in
  let target = Oracle.attach v1 in
  (match Oracle.to_serving target with Ok () -> () | Error e -> Alcotest.fail e);
  let values =
    Oracle.leak_at target ~addr:(Oracle.rsp target)
      ~words:((reference.R2c_attacks.Reference.ra_off / 8) + 8)
  in
  match R2c_attacks.Rop.craft ~reference ~values with
  | None -> Alcotest.fail "no gadget"
  | Some payload -> (
      match
        R2c_defenses.Mvee.run ~build:mvee_build ~seeds:[ 1; 2 ] ~inputs:[ ""; payload ]
      with
      | R2c_defenses.Mvee.Divergence _ -> ()
      | R2c_defenses.Mvee.Consistent _ -> Alcotest.fail "MVEE missed the exploit")

(* --- unwind tables (Section 7.2.4) --- *)

let test_unwind_tables_populated () =
  let img = Defenses.build_vulnapp Defenses.r2c ~seed:5 in
  Alcotest.(check bool) "function rows" true (Array.length img.Image.unwind_funcs > 5);
  Alcotest.(check bool) "site rows" true (Hashtbl.length (Image.sites img).unwind_sites > 10);
  (* Site rows under full R2C must include nonzero pre-offsets. *)
  let nonzero = Hashtbl.fold (fun _ w acc -> acc || w > 0) (Image.sites img).unwind_sites false in
  Alcotest.(check bool) "BTRA offsets recorded" true nonzero

let test_unwind_rows_shuffled () =
  (* Table rows are PC-keyed; row order follows the (randomized) layout,
     so the row index reveals nothing stable about function identity
     (Section 7.2.4's function-reordering argument). *)
  let order seed =
    let img = Defenses.build_vulnapp Defenses.r2c ~seed in
    Array.to_list img.Image.unwind_funcs
    |> List.map (fun (entry, _, _, _) ->
           match Image.func_of_addr img entry with Some f -> f.Image.fname | None -> "?")
  in
  Alcotest.(check bool) "row order differs across seeds" true (order 1 <> order 2)

let test_unwind_through_btras () =
  (* Walk a live stack with the unwinder and confirm the frame count and
     that every frame's return address lies inside a compiled function. *)
  let img = Defenses.build_vulnapp Defenses.r2c ~seed:8 in
  let target = Oracle.attach img in
  (match Oracle.to_serving target with Ok () -> () | Error e -> Alcotest.fail e);
  (* At the breakpoint we are mid-call-site; unwinding is specified from a
     return-address slot, so locate process_request's RA with ground truth
     and walk from there. *)
  let truth = R2c_attacks.Reference.measure img in
  let slot = Oracle.rsp target + truth.R2c_attacks.Reference.ra_off in
  let frames =
    Unwind.backtrace (Oracle.proc target).Process.cpu.Cpu.mem img ~ra_slot:slot
  in
  (* process_request's RA (into main); main's RA is in _start, which has no
     row — exactly one frame. *)
  Alcotest.(check int) "one compiled frame above process_request" 1 (List.length frames);
  List.iter
    (fun ra ->
      match Image.func_of_addr img ra with
      | Some f -> Alcotest.(check string) "frame in main" "main" f.Image.fname
      | None -> Alcotest.fail "frame outside compiled code")
    frames

let suite =
  [
    ( "extensions",
      [
        Alcotest.test_case "new setups differential" `Quick test_differential_new_setups;
        Alcotest.test_case "avx512 halves the gap" `Quick test_avx512_halves_the_gap;
        Alcotest.test_case "race beats naive" `Quick test_race_beats_naive;
        Alcotest.test_case "race fails vs R2C" `Quick test_race_fails_against_r2c;
        Alcotest.test_case "race fails vs push R2C" `Quick test_race_fails_against_push_r2c;
        Alcotest.test_case "zeroing discloses w/o checks" `Quick
          test_ra_zeroing_discloses_without_checks;
        Alcotest.test_case "zeroing detected w/ checks" `Quick test_ra_zeroing_checks_detect;
        Alcotest.test_case "rerand stops restart probing" `Quick
          test_rerandomization_stops_restart_probing;
        Alcotest.test_case "check fires on corruption" `Quick
          test_check_fires_on_corrupted_btra;
        Alcotest.test_case "mvee benign consistent" `Quick test_mvee_benign_consistent;
        Alcotest.test_case "mvee detects exploit" `Quick test_mvee_detects_tailored_exploit;
        Alcotest.test_case "unwind tables populated" `Quick test_unwind_tables_populated;
        Alcotest.test_case "unwind rows shuffled" `Quick test_unwind_rows_shuffled;
        Alcotest.test_case "unwind through BTRAs" `Quick test_unwind_through_btras;
        Alcotest.test_case "cfi differential" `Quick test_cfi_differential;
        Alcotest.test_case "cfi stops rop" `Quick test_cfi_stops_rop;
        Alcotest.test_case "cfi misses aocr" `Quick test_cfi_misses_aocr;
        Alcotest.test_case "r2c+cfi compose" `Quick test_r2c_cfi_compose;
        Alcotest.test_case "shadow stack mechanics" `Quick test_shadow_stack_mechanics;
      ] );
  ]
