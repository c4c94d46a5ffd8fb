(** The translation-validation gate (E-TVAL, `experiments tval`).

    Statically validates every bundled workload program under every
    {!R2c_fuzz.Oracle.matrix} configuration point: the {!R2c_analysis.Tval}
    symbolic refinement check over the emitted code, plus the
    {!R2c_analysis.Lint} IR rule pack over the input program. The fuzz
    reproducer corpus replays through the same validator, and the three
    {!R2c_fuzz.Oracle.plant} miscompiles are re-introduced and must each
    be caught *statically* — no execution anywhere in this gate.

    The report is bit-identical at any Domain-pool width ([?jobs] /
    [$R2C_JOBS]): units fan out over {!R2c_util.Parallel.map}, which
    preserves task order, and every finding is deterministic. Wall-clock
    and job count are therefore kept out of the report. *)

type point = {
  pname : string;  (** matrix point *)
  pfuncs : int;  (** functions validated (IR + BTDP constructor) *)
  pblocks : int;  (** basic blocks symbolically executed *)
  pfindings : string list;  (** rendered {!R2c_analysis.Tval.finding}s *)
}

type workload = {
  wname : string;
  ir_findings : string list;  (** rendered IR lint findings (config-free) *)
  points : point list;  (** one per matrix point, in matrix order *)
}

type plant = {
  plname : string;
  plpoint : string;  (** config the plant was compiled under *)
  caught : int;  (** validator findings against the unplanted IR *)
}

type replay = {
  rpath : string;
  rerrors : string list;  (** parse/validate/tval failures *)
}

type report = {
  seed : int;
  workloads : workload list;
  plants : plant list;
  corpus : replay list;
}

(** [run ?seed ?jobs ?corpus_dir ()] — the full gate. [seed] is the
    diversification seed every point compiles under (default 3, the fuzz
    oracle's); [corpus_dir] defaults to [test/corpus]. *)
val run : ?seed:int -> ?jobs:int -> ?corpus_dir:string -> unit -> report

(** [gate r] — violated criteria as [(check, detail)] pairs (empty =
    pass): zero validator and IR
    findings on every workload x point, every plant caught at every
    point it was compiled under, zero corpus replay failures, and
    non-trivial coverage (>= 17 workloads, >= 11 points). *)
val gate : report -> (string * string) list

(** [results r] — [det] holds the totals, the plant catches and the gate
    failures; the per-workload table and the verdicts are text only. *)
val results : report -> Results.t
