module Reference = R2c_attacks.Reference
module Report = R2c_attacks.Report
module Rop = R2c_attacks.Rop
module Jitrop = R2c_attacks.Jitrop
module Indirect_jitrop = R2c_attacks.Indirect_jitrop
module Aocr = R2c_attacks.Aocr
module Pirop = R2c_attacks.Pirop
module Blindrop = R2c_attacks.Blindrop
module Oracle = R2c_attacks.Oracle
module Victim = R2c_attacks.Victim
module Payload = R2c_attacks.Payload
module Suite = R2c_attacks.Suite
module Defenses = R2c_defenses.Defenses

let aslr = Option.get (Defenses.find "aslr")
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
        let reference, target = Suite.scenario aslr ~seed in
        Rop.run ~reference ~target)
  in
  Alcotest.(check int) "rop blind vs ASLR fails" 0 (rate runs)

(* --- JIT-ROP --- *)

let test_jitrop_vs_unprotected () =
  let reference, target = Suite.scenario Defenses.unprotected ~seed:2 in
  check_result "jitrop vs unprotected" ~expect_success:true (Jitrop.run ~reference ~target)

let test_jitrop_vs_aslr () =
  (* Runtime disclosure defeats sliding. *)
  let reference, target = Suite.scenario aslr ~seed:4 in
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
  let reference, target = Suite.scenario aslr ~seed:8 in
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
    (Aocr.run ~rng:(Rng.create 1) ~reference ~target)

let test_aocr_vs_aslr () =
  let reference, target = Suite.scenario aslr ~seed:12 in
  check_result "aocr vs aslr" ~expect_success:true
    (Aocr.run ~rng:(Rng.create 2) ~reference ~target)

let test_aocr_vs_readactor () =
  (* The paper's headline: AOCR defeats leakage-resilient code-only
     diversification. *)
  let reference, target = Suite.scenario Defenses.readactor ~seed:14 in
  check_result "aocr vs readactor" ~expect_success:true
    (Aocr.run ~rng:(Rng.create 3) ~reference ~target)

let test_aocr_vs_tasr () =
  (* Re-randomizing code does not help: AOCR is address-oblivious. *)
  let reference, target = Suite.scenario Defenses.tasr ~seed:16 in
  check_result "aocr vs tasr" ~expect_success:true
    (Aocr.run ~rng:(Rng.create 4) ~reference ~target)

let test_aocr_vs_r2c () =
  let runs =
    trials 8 (fun seed ->
        let reference, target = Suite.scenario Defenses.r2c ~seed in
        Aocr.run ~rng:(Rng.create (seed * 31)) ~reference ~target)
  in
  Alcotest.(check int) "aocr vs R2C never succeeds" 0 (rate runs);
  (* The reactive component: BTDP guard pages catch most campaigns. *)
  let detections = List.length (List.filter (fun r -> r.Report.detected) runs) in
  Alcotest.(check bool)
    (Printf.sprintf "aocr vs R2C mostly detected (%d/8)" detections)
    true (detections >= 4)

(* --- PIROP --- *)

let test_pirop_vs_aslr () =
  let reference, target = Suite.scenario aslr ~seed:18 in
  check_result "pirop vs aslr" ~expect_success:true
    (Pirop.run ~reference ~target)

let test_pirop_vs_r2c () =
  let runs =
    trials 5 (fun seed ->
        let reference, target = Suite.scenario Defenses.r2c ~seed in
        Pirop.run ~reference ~target)
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

(* --- Blind ROP against a scripted victim --- *)

(* A server whose stack holds [secret] below a return address at offset
   [String.length secret]: a payload survives iff it is a prefix of the
   secret, and past it the next word is what [ret] pops — a ret into
   print_int@plt prints one more line, and [gadget; marker; sensitive@plt]
   compromises the server. The first served payload of [rotate_at] bytes
   re-randomizes the secret; probes from number [refuse_from] on are
   refused. *)
let scripted ?(rotate_at = -1) ?(refuse_from = max_int) ~secret ~gadget () =
  let secret = ref secret and probes = ref 0 and owned = ref false in
  let chain =
    Payload.le64 gadget ^ Payload.le64 Vulnapp.marker ^ Payload.le64 (Payload.plt_addr_of "sensitive")
  in
  let probe p =
    incr probes;
    let ra = String.length !secret and n = String.length p in
    if !probes >= refuse_from then Victim.Refused
    else if n <= ra then
      if p = String.sub !secret 0 n then begin
        if n = rotate_at then secret := String.map (fun c -> Char.chr (Char.code c lxor 0xff)) !secret;
        Victim.Served 1
      end
      else Victim.Died 1
    else if String.sub p 0 ra <> !secret then Victim.Died 1
    else
      let tail = String.sub p ra (n - ra) in
      if tail = Payload.le64 (Payload.plt_addr_of "print_int") then Victim.Died 2
      else begin
        if tail = chain then owned := true;
        Victim.Died 1
      end
  in
  { Victim.probe; compromised = (fun () -> !owned) }

let planted_secret = String.init 24 (fun i -> Char.chr (((i * 37) + 5) land 0xff))

(* The sweep's first candidate: the text right after the PLT. *)
let sweep_start =
  R2c_machine.Addr.text_base + (16 * List.length R2c_machine.Image.builtin_names)

let test_campaign_finds_planted () =
  let o =
    Blindrop.campaign ~probe_budget:20_000
      (scripted ~secret:planted_secret ~gadget:(sweep_start + 100) ())
  in
  Alcotest.(check (option int)) "return address located" (Some 24) o.Blindrop.ra_offset;
  Alcotest.(check bool) ("planted gadget chained: " ^ o.Blindrop.note) true o.Blindrop.compromised

let test_campaign_gives_up_on_churn () =
  let o =
    Blindrop.campaign ~probe_budget:20_000
      (scripted ~rotate_at:8 ~secret:planted_secret ~gadget:(sweep_start + 100) ())
  in
  Alcotest.(check string) "note" "layout churn: learned bytes no longer hold" o.Blindrop.note;
  Alcotest.(check bool) "not compromised" false o.Blindrop.compromised

let test_campaign_gives_up_on_stall () =
  let o =
    Blindrop.campaign ~probe_budget:20_000
      (scripted ~refuse_from:31 ~secret:planted_secret ~gadget:(sweep_start + 100) ())
  in
  Alcotest.(check string) "note" "20 probes in a row refused: nothing to probe" o.Blindrop.note;
  Alcotest.(check int) "30 answered, then 20 refused" 50 o.Blindrop.probes

(* The budget bounds every probe: revalidations and stop-gadget pairs
   included, whichever test the budget runs out in. *)
let test_campaign_keeps_budget () =
  for budget = 1 to 200 do
    List.iter
      (fun (name, victim) ->
        let o = Blindrop.campaign ~probe_budget:budget (victim ()) in
        if o.Blindrop.probes > budget then
          Alcotest.failf "%s: budget %d, %d probes sent" name budget o.Blindrop.probes)
      [
        ("planted", fun () -> scripted ~secret:planted_secret ~gadget:(sweep_start + 100) ());
        ("churn", fun () -> scripted ~rotate_at:8 ~secret:planted_secret ~gadget:(sweep_start + 100) ());
        ( "stall",
          fun () -> scripted ~refuse_from:31 ~secret:planted_secret ~gadget:(sweep_start + 100) () );
      ]
  done

(* [Oracle.victim]'s verdicts: an exit is served, a crash died, a worker
   that never reaches the serving point refused — and so is every probe
   once the monitor has seen a detection. *)
let test_oracle_victim_verdicts () =
  let img = Defenses.build_vulnapp Defenses.unprotected ~seed:2 in
  let v = Oracle.victim (Oracle.attach img) in
  (match v.Victim.probe "GET /status" with
  | Victim.Served n -> Alcotest.(check bool) "response lines seen" true (n > 0)
  | Victim.Died _ | Victim.Refused -> Alcotest.fail "legit request: not served");
  (match v.Victim.probe (Payload.fill 300) with
  | Victim.Died _ -> ()
  | Victim.Served _ | Victim.Refused -> Alcotest.fail "smashed stack: not died");
  let target = Oracle.attach img in
  let proc = Oracle.proc target in
  let faulting = { R2c_machine.Inject.zero with R2c_machine.Inject.spurious_fault = 1.0 } in
  proc.Process.cpu <-
    R2c_machine.Cpu.clone ~inject:(R2c_machine.Inject.create ~rates:faulting ~seed:1 ()) proc.Process.cpu;
  let v = Oracle.victim target in
  Alcotest.(check bool) "no serving point: refused" true (v.Victim.probe "GET /status" = Victim.Refused);
  (match v.Victim.probe "GET /status" with
  | Victim.Served _ -> ()
  | Victim.Died _ | Victim.Refused -> Alcotest.fail "respawned worker: not served");
  let target = Suite.target Defenses.r2c ~seed:2 in
  (match Oracle.to_serving target with Ok () -> () | Error e -> Alcotest.fail e);
  (match R2c_machine.Mem.guard_page_addrs (Oracle.proc target).Process.cpu.R2c_machine.Cpu.mem with
  | g :: _ -> ignore (Oracle.arb_read target g)
  | [] -> Alcotest.fail "no guard page");
  Alcotest.(check bool) "guard page detected" true (Oracle.detected target);
  let crashes = Oracle.crashes target in
  let v = Oracle.victim target in
  Alcotest.(check bool) "monitor tripped: refused" true (v.Victim.probe "GET /status" = Victim.Refused);
  Alcotest.(check int) "no worker driven" crashes (Oracle.crashes target)

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
        Alcotest.test_case "campaign finds planted" `Quick test_campaign_finds_planted;
        Alcotest.test_case "campaign churn give-up" `Quick test_campaign_gives_up_on_churn;
        Alcotest.test_case "campaign stall give-up" `Quick test_campaign_gives_up_on_stall;
        Alcotest.test_case "campaign keeps its probe budget" `Quick test_campaign_keeps_budget;
        Alcotest.test_case "oracle victim verdicts" `Quick test_oracle_victim_verdicts;
        Alcotest.test_case "suite registry" `Quick test_suite_registry;
      ] );
  ]
