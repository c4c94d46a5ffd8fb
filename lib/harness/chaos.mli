(** Availability chaos harness (supervision-layer evaluation).

    Three experiments around {!R2c_runtime.Pool}:

    - {!run} — the webserver worker pool under a combined campaign: a
      Blind-ROP attacker (stack reading + ret2plt gadget sweep, adapted to
      pool semantics: the only feedback is served / died / refused) probing
      while legitimate traffic flows, once per restart policy. Reports
      availability, MTTR and detection-to-response latency; the expected
      shape is Same_image bleeding availability for the whole campaign
      while Rerandomize and Reactive force the attacker into a layout-churn
      abort.
    - {!injection_sweep} — no attacker, only injected faults (bit flips,
      corrupted loads, spurious faults, fuel cuts) at increasing rates.
    - {!baseline_equivalence} — the guardrail: an attached injector with
      all rates zero must reproduce the bare run bit for bit (outcome,
      instructions, cycles). *)

type attack_cfg = {
  probe_budget : int;
  churn_limit : int;  (** consecutive failed revalidations before giving up *)
  stall_limit : int;  (** consecutive refused probes before giving up *)
  sweep_budget : int;  (** gadget addresses swept per RA candidate *)
}

val default_attack : attack_cfg

type attack_report = { probes : int; note : string; compromised : bool }

type run_result = {
  policy : R2c_runtime.Policy.t;
  stats : R2c_runtime.Pool.stats;
  clock : int;
  legit_served : int;
  legit_total : int;
  availability : float;  (** legit traffic only *)
  probes : int;
  attack_note : string;
  compromised : bool;
  escalated : bool;
}

val run_policy :
  ?seed:int -> ?legit_total:int -> ?attack:attack_cfg -> R2c_runtime.Policy.t ->
  run_result

(** [run ()] — {!run_policy} for each policy in the lineup: same-image,
    backoff, rerandomize, reactive→rerandomize, reactive→MVEE. *)
val run : ?seed:int -> ?legit_total:int -> ?attack:attack_cfg -> unit -> run_result list

(** [gate ~equivalent results] — violated criteria as [(check, detail)]
    pairs (empty = pass): [equivalent] (see {!baseline_equivalence})
    holds, and no re-randomizing policy (rerandomize, reactive) was
    compromised by the campaign the same-image policy loses to. *)
val gate : equivalent:bool -> run_result list -> (string * string) list

type sweep_row = {
  label : string;
  rates : R2c_machine.Inject.rates;
  sweep_policy : R2c_runtime.Policy.t;
  sweep_stats : R2c_runtime.Pool.stats;
  sweep_availability : float;
}

val injection_sweep : ?seed:int -> ?requests:int -> unit -> sweep_row list

(** [baseline_equivalence ()] — true iff the rate-0 injector run equals
    the bare run exactly. *)
val baseline_equivalence : ?seed:int -> unit -> bool

(** [results ~sweep ~equivalent runs] — the per-policy campaign table,
    the injection sweep and the rate-0 equivalence verdict. *)
val results : sweep:sweep_row list -> equivalent:bool -> run_result list -> Results.t
