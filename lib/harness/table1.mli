(** Table 1: maximum and geometric-mean overhead of R2C's components
    (Section 6.2.1–6.2.3), plus the offset-invariant-addressing isolation
    of Section 6.2.1. Components are measured in isolation on the SPEC
    suite, recompiled with a fresh seed per run, on the EPYC Rome profile
    — the paper's methodology. *)

type row = {
  label : string;
  max : float;
  geomean : float;
  per_benchmark : (string * float) list;
}

(** [run ?seeds ()] — default seeds [3; 11; 27]. *)
val run : ?seeds:int list -> unit -> row list

(** [results rows] — the measured table with the paper's Table 1 beside it. *)
val results : row list -> Results.t
