(** Table 3: the defense comparison. Every cell is *measured*: the attack
    runs against the defense model over several independently seeded
    victim/reference pairs. A filled cell means the defense stopped every
    trial; the overhead column shows our measured SPEC-subset geomean
    beside the number the defense's paper reported.

    The source text of the paper available to this reproduction has
    OCR-damaged glyphs in Table 3, so the paper-side cells are
    reconstructed; see EXPERIMENTS.md. *)

type cell = {
  attack : string;
  trials : int;
  successes : int;
  detections : int;
}

type row = {
  defense : string;
  measured_overhead : float option;  (** geomean on a SPEC subset *)
  icache_miss_pct : float option;
      (** defended builds' aggregate icache miss rate on the subset *)
  peak_depth : int option;  (** deepest call nesting across the subset *)
  paper_overhead : string;
  cpp : bool;
  cells : cell list;
}

(** [run ?trials ?with_overhead ()] — defaults: 3 trials per cell, with the
    overhead column (set [with_overhead:false] to skip the slow part). *)
val run : ?trials:int -> ?with_overhead:bool -> unit -> row list

val results : row list -> Results.t

(** [gate rows] — the reproduction check as [(check, detail)] pairs
    (empty = pass): every attack fails against the R2C row, and at least
    one succeeds against the unprotected baseline. *)
val gate : row list -> (string * string) list

(** [glyph cell] — "●" stopped every trial, "○" succeeded in most trials,
    "◐" in between. *)
val glyph : cell -> string
