(** Measurement helpers shared by the experiment harnesses. *)

type stats = {
  total_cycles : float;
  steady_cycles : float;  (** from [main] entry to exit — startup excluded,
                              matching SPEC's amortization of one-time costs *)
  calls : int;
  insns : int;
  maxrss_bytes : int;
  icache_accesses : int;
  icache_misses : int;
  peak_depth : int;  (** deepest simulated call nesting reached *)
}

(** [run ?profile ?obs ?label img] — execute to completion; fails on crash
    or non-zero exit.

    With [?obs], a {!R2c_obs.Profile} observer rides the whole run: the
    flat per-function profile is stored in the sink under [label] (default
    ["measure"]), published into its metrics registry, and the run appears
    as one span on the event timeline. Without [?obs] the interpreter runs
    bare and cycle totals are bit-identical to an unobserved run. *)
val run :
  ?profile:R2c_machine.Cost.profile ->
  ?obs:R2c_obs.Sink.t ->
  ?label:string ->
  R2c_machine.Image.t ->
  stats

(** Baseline runs, one per (program, cost profile): a program compiled
    without diversification ({!R2c_compiler.Driver.compile}) and {!run}.
    An experiment makes one table per run and hands it to every overhead
    it measures, so each baseline runs once however many configurations
    it is compared with. Use a table from one domain at a time. *)
type baselines

val baselines : unit -> baselines

(** [baseline ?profile bs program] — [program]'s baseline stats, measured
    on first request (profile default EPYC Rome, as {!run}). *)
val baseline : ?profile:R2c_machine.Cost.profile -> baselines -> Ir.program -> stats

(** [ratio ?profile bs program s] — [s]'s steady cycles over [program]'s
    baseline steady cycles. *)
val ratio : ?profile:R2c_machine.Cost.profile -> baselines -> Ir.program -> stats -> float

(** [overhead ?profile ?baselines ~seeds cfg program] — median over
    [seeds] of the steady-cycle ratio R2C(cfg)/baseline; [?baselines]
    defaults to a fresh table. *)
val overhead :
  ?profile:R2c_machine.Cost.profile ->
  ?baselines:baselines ->
  seeds:int list ->
  R2c_core.Dconfig.t ->
  Ir.program ->
  float

(** [suite_overheads ?profile ~baselines ~seeds cfg] — (benchmark,
    overhead) for the whole SPEC-shaped suite. *)
val suite_overheads :
  ?profile:R2c_machine.Cost.profile ->
  baselines:baselines ->
  seeds:int list ->
  R2c_core.Dconfig.t ->
  (string * float) list

(** [geomean_max rows] — (max, geomean) of the overhead column. *)
val geomean_max : (string * float) list -> float * float
