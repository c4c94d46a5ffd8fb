open R2c_machine
module Pool = R2c_runtime.Pool
module Policy = R2c_runtime.Policy
module Vulnapp = R2c_workloads.Vulnapp
module Victim = R2c_attacks.Victim

(* The victim: the vulnerable server under full R2C with post-return BTRA
   checks (Section 7.3) and without ASLR — the non-PIE worker-respawn
   scenario Blind ROP was built for. Booby-trap detections during stack
   reading are the signal the Reactive policy listens to. *)
let victim_cfg = { (R2c_core.Dconfig.full_checked) with R2c_core.Dconfig.aslr = false }

let build_victim ~seed = Vulnapp.build ~seed victim_cfg

let legit_payload = "GET /status"

(* ------------------------------------------------------------------ *)
(* Availability under attack, per restart policy. *)

type run_result = {
  policy : Policy.t;
  stats : Pool.stats;
  legit_served : int;
  legit_total : int;
  availability : float;  (** legit traffic only *)
  probes : int;
  attack_note : string;
  compromised : bool;
  escalated : bool;
}

let pool_cfg ?(inject = Inject.zero) ~seed policy =
  {
    Pool.default_config with
    Pool.policy;
    seed;
    (* MaxRequestsPerChild = 1: every request is served by a fresh fork,
       so probe feedback depends only on the payload — the uniform oracle
       Blind ROP needs (and real pre-fork servers provide). *)
    requests_per_child = 1;
    inject;
  }

let run_policy ?(seed = 7) ?(legit_total = 400) ?(probe_budget = 4000) policy =
  let pool =
    Pool.create ~cfg:(pool_cfg ~seed policy) ~build:build_victim
      ~break_sym:Vulnapp.break_symbol ()
  in
  let legit_sent = ref 0 in
  let legit_served = ref 0 in
  let legit () =
    if !legit_sent < legit_total then begin
      incr legit_sent;
      match Pool.submit pool legit_payload with
      | Pool.Served _ -> incr legit_served
      | Pool.Rejected _ | Pool.Dropped -> ()
    end
  in
  (* The attacker talks to the pool like any client, between legitimate
     requests: a probe is a request with [~retries:0]. *)
  let victim =
    {
      Victim.probe =
        (fun payload ->
          legit ();
          match Pool.submit ~retries:0 pool payload with
          | Pool.Served { lines; _ } -> Victim.Served lines
          | Pool.Rejected { lines; _ } -> Victim.Died lines
          | Pool.Dropped -> Victim.Refused);
      compromised =
        (fun () -> List.exists (fun (rdi, _) -> rdi = Vulnapp.marker) (Pool.sensitive_log pool));
    }
  in
  let campaign = R2c_attacks.Blindrop.campaign ~probe_budget victim in
  (* The campaign is over (aborted or compromised); the service keeps
     serving — post-attack traffic shows where the fleet settled. *)
  while !legit_sent < legit_total do
    legit ()
  done;
  {
    policy;
    stats = Pool.stats pool;
    legit_served = !legit_served;
    legit_total;
    availability = float_of_int !legit_served /. float_of_int (max 1 legit_total);
    probes = campaign.probes;
    attack_note = campaign.note;
    compromised = campaign.compromised;
    escalated = Pool.escalated pool;
  }

let policies =
  [
    Policy.Same_image;
    Policy.Backoff Policy.default_backoff;
    Policy.Rerandomize;
    Policy.Reactive Policy.Escalate_rerandomize;
    Policy.Reactive (Policy.Escalate_mvee { variants = 3 });
  ]

let run ?seed ?legit_total ?probe_budget () =
  List.map (fun p -> run_policy ?seed ?legit_total ?probe_budget p) policies

let gate ~equivalent results =
  Gate.failed
    (( "zero-rate-injector",
       "the rate-0 injector run differs from the bare run",
       equivalent )
    :: List.filter_map
         (fun r ->
           match r.policy with
           | Policy.Rerandomize | Policy.Reactive _ ->
               Some
                 ( "policy-holds",
                   Policy.to_string r.policy ^ " was compromised",
                   not r.compromised )
           | Policy.Same_image | Policy.Backoff _ -> None)
         results)

(* ------------------------------------------------------------------ *)
(* Fault-injection sweep: legit traffic only, increasing chaos rates.
   Measures what the supervision layer buys when the faults are not an
   attacker but plain bad luck (bitflips, corrupted loads, lost fuel). *)

type sweep_row = {
  label : string;
  rates : Inject.rates;
  sweep_policy : Policy.t;
  sweep_stats : Pool.stats;
  sweep_availability : float;
}

let sweep_points =
  [
    ("none", Inject.zero);
    ("light", { Inject.bitflip = 0.00002; load_corrupt = 0.00002; spurious_fault = 0.00001; fuel_cut = 0.0 });
    ("heavy", { Inject.bitflip = 0.0002; load_corrupt = 0.0002; spurious_fault = 0.0001; fuel_cut = 0.05 });
  ]

let injection_sweep ?(seed = 11) ?(requests = 120) () =
  List.concat_map
    (fun policy ->
      List.map
        (fun (label, rates) ->
          let pool =
            Pool.create
              ~cfg:(pool_cfg ~inject:rates ~seed policy)
              ~build:build_victim ~break_sym:Vulnapp.break_symbol ()
          in
          let served = ref 0 in
          for _ = 1 to requests do
            match Pool.submit pool legit_payload with
            | Pool.Served _ -> incr served
            | Pool.Rejected _ | Pool.Dropped -> ()
          done;
          {
            label;
            rates;
            sweep_policy = policy;
            sweep_stats = Pool.stats pool;
            sweep_availability = float_of_int !served /. float_of_int requests;
          })
        sweep_points)
    [ Policy.Same_image; Policy.Backoff Policy.default_backoff; Policy.Rerandomize ]

(* ------------------------------------------------------------------ *)
(* Rate-zero equivalence: an attached injector with all rates at 0.0 must
   not perturb execution at all — same outcome, same instruction count,
   same cycle count, bit for bit. The chaos harness is only trustworthy
   if observing the system (at rate 0) does not change it. *)

let baseline_equivalence ?(seed = 5) () =
  let run inject =
    let proc = Process.start ?inject ~fuel:5_000_000 (build_victim ~seed) in
    let outcome = Process.run proc in
    (outcome, Process.insns proc, Process.cycles proc)
  in
  let bare = run None in
  let zeroed = run (Some (Inject.create ~rates:Inject.zero ~seed:99 ())) in
  bare = zeroed

let results ~sweep ~equivalent runs =
  let open Results in
  let kcycles fmt = function Some c -> Float (fmt, c) | None -> Missing in
  [
    table "policies" ~title:"Availability under Blind ROP, by restart policy"
      [
        left "policy" "policy"; col "availability" "avail"; col "served" "served";
        col "crashes" "crashes"; col "detections" "detect"; col "rerandomizations" "rerand";
        col "mttr_cycles" "mttr"; col "detection_to_response_cycles" "det->resp";
        col "probes" "probes"; left "campaign_end" "campaign end";
      ]
      (List.map
         (fun r ->
           [
             Str (Policy.to_string r.policy);
             pct r.availability;
             Str (Printf.sprintf "%d/%d" r.legit_served r.legit_total);
             Int r.stats.Pool.crashes;
             Int r.stats.Pool.detections;
             Int r.stats.Pool.rerandomizations;
             kcycles (fun m -> Printf.sprintf "%.0fk" (m /. 1000.)) (Pool.mttr r.stats);
             kcycles
               (fun d -> Printf.sprintf "%dk" (int_of_float d / 1000))
               (Option.map float_of_int (Pool.detection_to_response r.stats));
             Int r.probes;
             Str (if r.compromised then "COMPROMISED" else r.attack_note);
           ])
         runs);
    table "injection_sweep" ~title:"Fault-injection sweep (legit traffic only)"
      [
        left "policy" "policy"; left "chaos" "chaos"; col "availability" "avail";
        col "crashes" "crashes"; col "timeouts" "timeouts"; col "restarts" "restarts";
        col "quarantines" "quarantine";
      ]
      (List.map
         (fun r ->
           [
             Str (Policy.to_string r.sweep_policy);
             Str r.label;
             pct r.sweep_availability;
             Int r.sweep_stats.Pool.crashes;
             Int r.sweep_stats.Pool.timeouts;
             Int r.sweep_stats.Pool.restarts;
             Int r.sweep_stats.Pool.quarantines;
           ])
         sweep);
    field "zero_rate_equivalent"
      ~label:"rate-0 injector run identical to the bare run (outcome, insns, cycles)"
      (Bool equivalent);
  ]
