(** Profiling harness: one workload, baseline vs one R2C configuration,
    measured side by side with the {!R2c_obs.Profile} per-step profiler,
    plus an observed worker-pool run for the Chrome-trace timeline export
    (experiment E-PROF). *)

type side = {
  label : string;
  stats : Measure.stats;
  prof : R2c_obs.Profile.t;
}

type result = {
  workload : string;
  cfg_name : string;
  base : side;
  r2c : side;
  sink : R2c_obs.Sink.t;  (** holds both profiles, metrics and spans *)
}

(** [run ?cfg ?cfg_name ?seed ?profile ~workload ()] — measure the named
    SPEC-shaped workload baseline and under [cfg] (default full R2C), with
    the profiler attached to both runs. *)
val run :
  ?cfg:R2c_core.Dconfig.t ->
  ?cfg_name:string ->
  ?seed:int ->
  ?profile:R2c_machine.Cost.profile ->
  workload:string ->
  unit ->
  result

(** [sums_ok ?tol r] — the profiler's column sums reproduce the CPU's own
    counters on both sides: insns and icache misses exactly, cycles within
    [tol] (default 1%). *)
val sums_ok : ?tol:float -> result -> bool

(** [results ?top r] — side-by-side per-function cycle table (descending by
    diversified cycles) with the callsite / prologue / icache / other
    overhead split, followed by icache and call-depth summary lines; all
    text only. *)
val results : ?top:int -> result -> Results.t

(** [pool_timeline ?requests ?seed ()] — run the chaos victim pool under
    observation on a mixed legitimate/attack request stream; returns the
    sink (whose event timeline a caller exports via
    {!R2c_obs.Events.to_chrome}) and the pool's final stats. *)
val pool_timeline :
  ?requests:int -> ?seed:int -> unit -> R2c_obs.Sink.t * R2c_runtime.Pool.stats
