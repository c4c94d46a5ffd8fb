(** Trace-level delta debugging: shrink a recorded trace while a
    fidelity oracle keeps passing.

    An instance of {!Shrink.Greedy} (the same greedy driver the fuzzer
    uses on IR programs) over {!Trace.t}: weight is {!Trace.size},
    validity is structural (dictionary indices in range, loop counts
    positive), and the keep-predicate re-replays the candidate with
    {!Replayer.check} — an edit survives only if the reduced trace still
    reproduces the recorded profile within tolerance. Edits go
    big-to-small:

    - drop every span of one builtin family (prints, allocations,
      [sensitive] probes are pure observations — replay performs the
      calls itself, the trace need not carry them);
    - drop empty [read_input] spans (reads against a drained queue);
    - elide surviving [read_input] spans to [Feed] references into a
      deduplicated payload dictionary (allocation/timestamp chatter
      gone, repeated request bodies interned once);
    - collapse periodic event runs into [Loop] nodes (steady-state
      request traffic becomes one iteration and a count);
    - split a family in half when the whole family would not go.

    Every oracle call recompiles and re-runs the candidate, so the
    budget counts oracle calls, not structural checks. *)

type report = {
  raw_bytes : int;  (** {!Trace.size} before reduction *)
  reduced_bytes : int;
  raw_spans : int;
  reduced_spans : int;  (** after loop expansion — recorded calls represented *)
  checks : int;  (** fidelity-oracle runs spent *)
  kept : int;  (** accepted edits *)
}

(** Fraction of event/dictionary bytes removed, in [0, 1]. *)
val ratio : report -> float

(** [run ?max_checks ?tolerance t] — the reduced trace and the report.
    [t] must itself pass the oracle; if nothing can be removed it is
    returned unchanged. Default [max_checks]: 200 (each check is a full
    compile-and-run). *)
val run : ?max_checks:int -> ?tolerance:float -> Trace.t -> Trace.t * report
