(** Fuzzing campaigns: generate, oracle-check, shrink, persist.

    The correctness backstop for every later perf/refactor PR: [run]
    hunts for compiler/VM divergences across the whole [Oracle.matrix];
    [self_check] plants a deliberate miscompile and requires the pipeline
    to catch it, shrink it to a handful of instructions, and emit a valid
    [.r2c] reproducer — proving the oracle and shrinker actually work
    before trusting a clean campaign. *)

type report = {
  seed : int;
  requested : int;  (** programs asked for *)
  programs : int;  (** programs oracle-checked (= requested) *)
  skipped : int;  (** outside the differential contract (interp fuel etc.) *)
  points : int;  (** config points checked per program *)
  divergences : int;  (** programs with at least one failing point *)
  reproducers : (string * int) list;
      (** saved reproducer path, shrunk size in IR instructions *)
}

(** [run ?corpus_dir ?fuel ?jobs ~seed ~count ()] — [count] generator-v2
    programs derived from [seed], each checked against the full matrix.
    Divergences are shrunk against their first failing point and, when
    [corpus_dir] is given, saved there. Programs fan out over a
    {!R2c_util.Parallel} domain pool capped at [jobs] (1 = the historical
    serial path); the report is identical at any [jobs]. *)
val run :
  ?corpus_dir:string -> ?fuel:int -> ?jobs:int -> seed:int -> count:int -> unit -> report

type self_check = {
  caught : bool;  (** the planted miscompile diverged *)
  shrunk_size : int;  (** [Ir.program_size] of the reduced reproducer *)
  reproducer : string;
      (** file name of the saved [.r2c] under [out_dir]: a name, not a
          path, so the report does not depend on the temp directory *)
  roundtrip_ok : bool;  (** saved file parses, validates, still fails *)
  still_fails : bool;  (** the shrunk program still diverges *)
}

(** [self_check ?out_dir ?fuel ~seed ()] — plant [Oracle.Sub_to_add],
    fuzz one program, shrink the divergence, save the reproducer under
    [out_dir] (default: [<tmp>/r2c_fuzz]). *)
val self_check : ?out_dir:string -> ?fuel:int -> seed:int -> unit -> self_check

(** [replay ?fuel ~dir ()] — load every [.r2c] under [dir], demand it
    parses, validates, and passes the oracle. Returns
    [(path, error) list]; empty means clean (vacuously so for an empty
    corpus). *)
val replay : ?fuel:int -> dir:string -> unit -> (string * string) list
