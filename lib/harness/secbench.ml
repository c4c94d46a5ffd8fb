module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
module Reference = R2c_attacks.Reference
module Report = R2c_attacks.Report
module Suite = R2c_attacks.Suite
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
  let target = Oracle.attach img in
  (match Oracle.to_serving target with Ok () -> () | Error e -> failwith e);
  let words = (truth.Reference.ra_off / 8) + 8 in
  let values = Oracle.leak_at target ~addr:(Oracle.rsp target) ~words in
  let mem = (Oracle.proc target).Process.cpu.Cpu.mem in
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
        let reference, target = Suite.scenario ~reference_seed:(seed + 500) Defenses.r2c ~seed in
        R2c_attacks.Aocr.run ~rng:(Rng.create (seed * 131)) ~reference ~target)
  in
  (* Blind ROP battery against a non-PIE R2C server (the restart scenario
     of Section 7.3). *)
  let brop_trials = max 2 (trials / 3) in
  let brop_reports =
    parallel_init brop_trials (fun i ->
        R2c_attacks.Blindrop.run ~probe_budget:4000
          ~target:(Suite.target Defenses.r2c_nopie ~seed:((i * 11) + 3))
          ())
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

let results t =
  let open Results in
  let p digits x = Float (Printf.sprintf "%.*f" digits, x) in
  [
    table "camouflage" ~title:"Security evaluation (Section 7.2)"
      [ left "quantity" "quantity"; col "empirical" "empirical"; col "analytic" "analytic" ]
      [
        [ Str "return-address candidates per frame"; f1 t.ra_candidates_mean; Missing ];
        [ Str "RA guess probability, 1/(R+1)"; p 4 t.empirical_ra_p; p 4 t.analytic_ra_p ];
        [
          Str "4-RA chain (paper: n=4, R=10)"; p 6 (t.empirical_ra_p ** 4.0);
          p 6 Paper.guess_probability_example;
        ];
        [ Str "benign heap pointers per leak"; f1 t.heap_benign_mean; Missing ];
        [ Str "BTDPs per leak"; f1 t.heap_btdp_mean; Missing ];
        [ Str "benign pick probability, H/(H+B)"; p 3 t.empirical_pick_p; p 3 t.analytic_pick_p ];
      ];
    table "campaigns" ~title:"Monte-Carlo attack campaigns"
      [
        left "campaign" "campaign"; col "trials" "trials"; col "successes" "succeeded";
        col "detections" "detected";
      ]
      [
        [ Str "AOCR vs R2C"; Int t.aocr_trials; Int t.aocr_successes; Int t.aocr_detections ];
        [
          Str "Blind ROP vs non-PIE R2C"; Int t.brop_trials; Int t.brop_successes;
          Int t.brop_detections;
        ];
      ];
  ]
