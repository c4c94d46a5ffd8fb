module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
module Reference = R2c_attacks.Reference
module Report = R2c_attacks.Report
module Vulnapp = R2c_workloads.Vulnapp
module Probability = R2c_core.Probability
module Rng = R2c_util.Rng
module Stats = R2c_util.Stats
open R2c_machine

type t = {
  ra_candidates_mean : float;
  analytic_ra_p : float;
  empirical_ra_p : float;
  heap_benign_mean : float;
  heap_btdp_mean : float;
  analytic_pick_p : float;
  empirical_pick_p : float;
  aocr_trials : int;
  aocr_successes : int;
  aocr_detections : int;
  brop_trials : int;
  brop_successes : int;
  brop_detections : int;
}

(* Ground-truth inspection of one R2C victim's leaked frame. *)
let frame_census ~seed =
  let img = Defenses.build_vulnapp Defenses.r2c ~seed in
  (* Reference.measure on the target itself: evaluation-side ground truth. *)
  let truth = Reference.measure img in
  let target = Oracle.attach ~break_sym:Vulnapp.break_symbol img in
  (match Oracle.to_break target with `Break -> () | `Done _ -> failwith "no break");
  (match Oracle.resume_to_break target with `Break -> () | `Done _ -> failwith "no break2");
  let words = (truth.Reference.ra_off / 8) + 8 in
  let _, values = Oracle.leak_stack target ~words in
  let mem = target.Oracle.proc.Process.cpu.Cpu.mem in
  let guards = Mem.guard_page_addrs mem in
  let text_candidates = ref 0 in
  let benign_heap = ref 0 in
  let btdp = ref 0 in
  Array.iter
    (fun v ->
      match Addr.region_of v with
      | Addr.Text -> incr text_candidates
      | Addr.Heap ->
          if List.mem (Addr.page_base v) guards then incr btdp else incr benign_heap
      | Addr.Data | Addr.Stack | Addr.Unmapped_region -> ())
    values;
  (!text_candidates, !benign_heap, !btdp)

let run ?(trials = 8) ?jobs () =
  (* Every trial builds its own victim from its own seed — an
     embarrassingly parallel campaign, fanned out over the domain pool.
     [Parallel.map] keeps trial order, so the statistics match the serial
     run exactly. *)
  let parallel_init n f = R2c_util.Parallel.mapi ?jobs (fun i () -> f i) (List.init n (fun _ -> ())) in
  let censuses = parallel_init trials (fun i -> frame_census ~seed:((i * 7) + 1)) in
  let mean f = Stats.mean (List.map f censuses) in
  let ra_candidates_mean = mean (fun (c, _, _) -> float_of_int c) in
  let heap_benign_mean = mean (fun (_, h, _) -> float_of_int h) in
  let heap_btdp_mean = mean (fun (_, _, b) -> float_of_int b) in
  (* AOCR battery. *)
  let aocr_reports =
    parallel_init trials (fun i ->
        let seed = (i * 3) + 1 in
        let target =
          Oracle.attach ~break_sym:Vulnapp.break_symbol
            (Defenses.build_vulnapp Defenses.r2c ~seed)
        in
        let reference =
          Reference.measure (Defenses.build_vulnapp Defenses.r2c ~seed:(seed + 500))
        in
        R2c_attacks.Aocr.run ~rng:(Rng.create (seed * 131)) ~reference ~target ())
  in
  (* Blind ROP battery against a non-PIE R2C server (the restart scenario
     of Section 7.3). *)
  let r2c_nopie =
    { Defenses.r2c with Defenses.cfg = { (R2c_core.Dconfig.full ()) with aslr = false } }
  in
  let brop_trials = max 2 (trials / 3) in
  let brop_reports =
    parallel_init brop_trials (fun i ->
        let target =
          Oracle.attach ~break_sym:Vulnapp.break_symbol
            (Defenses.build_vulnapp r2c_nopie ~seed:((i * 11) + 3))
        in
        R2c_attacks.Blindrop.run ~probe_budget:4000 ~target ())
  in
  let count p l = List.length (List.filter p l) in
  {
    ra_candidates_mean;
    analytic_ra_p = Probability.guess_return_address ~btras:10;
    empirical_ra_p = 1.0 /. Float.max 1.0 ra_candidates_mean;
    heap_benign_mean;
    heap_btdp_mean;
    analytic_pick_p =
      Probability.pick_benign_heap_pointer
        ~benign:(int_of_float (Float.round heap_benign_mean))
        ~btdps:(max 1 (int_of_float (Float.round heap_btdp_mean)));
    empirical_pick_p = heap_benign_mean /. Float.max 1.0 (heap_benign_mean +. heap_btdp_mean);
    aocr_trials = trials;
    aocr_successes = count (fun r -> r.Report.success) aocr_reports;
    aocr_detections = count (fun r -> r.Report.detected) aocr_reports;
    brop_trials;
    brop_successes = count (fun r -> r.Report.success) brop_reports;
    brop_detections = count (fun r -> r.Report.detected) brop_reports;
  }

let gate t =
  Gate.failed
    [
      ( "aocr",
        Printf.sprintf "AOCR breached full R2C in %d/%d trials" t.aocr_successes t.aocr_trials,
        t.aocr_successes = 0 );
      ( "blind-rop",
        Printf.sprintf "Blind ROP breached full R2C in %d/%d trials" t.brop_successes
          t.brop_trials,
        t.brop_successes = 0 );
    ]

let print t =
  Printf.printf "\n== Security evaluation (Section 7.2) ==\n";
  Printf.printf "return-address camouflage: %.1f text-range candidates per frame\n"
    t.ra_candidates_mean;
  Printf.printf "  guess probability: empirical %.4f vs analytic 1/(R+1) = %.4f\n"
    t.empirical_ra_p t.analytic_ra_p;
  Printf.printf "  paper example (n=4, R=10): (1/11)^4 = %.6f; ours: %.6f\n"
    Paper.guess_probability_example
    (t.empirical_ra_p ** 4.0);
  Printf.printf "heap-pointer camouflage: %.1f benign vs %.1f BTDPs per leak\n"
    t.heap_benign_mean t.heap_btdp_mean;
  Printf.printf "  benign pick probability: empirical %.3f vs analytic H/(H+B) = %.3f\n"
    t.empirical_pick_p t.analytic_pick_p;
  Printf.printf "AOCR vs R2C: %d/%d succeeded, %d/%d campaigns detected\n" t.aocr_successes
    t.aocr_trials t.aocr_detections t.aocr_trials;
  Printf.printf "Blind ROP vs non-PIE R2C: %d/%d succeeded, %d/%d detected\n"
    t.brop_successes t.brop_trials t.brop_detections t.brop_trials
