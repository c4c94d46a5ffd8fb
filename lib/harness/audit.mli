(** The static audit gate: IR validation over every generated workload,
    the image linter over diversified vulnapp variants, the gadget-surface
    survivor intersection, and the sanitizer wiring self-check — the
    `experiments audit` subcommand and the `make check` lint step.

    A clean run means: zero IR diagnostics, zero lint findings on every
    unmodified image, every seeded mutation flagged by exactly its rule,
    and a cross-variant gadget survivor count strictly below every single
    variant's gadget count. *)

type variant = {
  label : string;
  seed : int;
  findings : R2c_analysis.Lint.finding list;
  n_gadgets : int;
  cfg_stats : R2c_analysis.Cfg.stats;
}

(** Per-workload dataflow statistics: dead stores flagged by the
    liveness lint rule, instructions the conditional constant propagator
    folds, and the worst fixpoint sweep count over all three analyses. *)
type dataflow_row

type t = {
  ir_checked : (string * string list) list;  (** workload, diagnostics *)
  dataflow : dataflow_row list;  (** one row per workload *)
  r2c : variant list;  (** full R2C, one per seed *)
  r2c_survivors : int;  (** gadget intersection across the r2c variants *)
  baseline : variant list;  (** undiversified control group *)
  baseline_survivors : int;
  checked : variant;  (** full R2C + Section 7.3 post-checks *)
  selfcheck : R2c_analysis.Selfcheck.outcome list;
  ir_selfcheck : R2c_analysis.Selfcheck.ir_outcome list;
      (** IR rule pack + translation-validator wiring *)
}

(** Every IR program the repo generates, named — the audit's validation
    set and the {!Tvalbench} workload list (17 programs: the Spec
    benchmarks plus the webservers, vulnapp, genprog and browser). *)
val ir_programs : unit -> (string * Ir.program) list

(** [run ?seeds ()] — defaults to 5 seeds, i.e. 5 diversified variants. *)
val run : ?seeds:int list -> unit -> t

(** [gate t] — violated criteria as [(check, detail)] pairs (empty = a
    clean audit). *)
val gate : t -> (string * string) list

(** [results t] — [det] holds the workload count, both survivor counts and
    the gate failures; the tables are text only. *)
val results : t -> Results.t
