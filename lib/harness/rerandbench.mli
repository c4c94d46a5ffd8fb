(** Incremental rerandomization benchmark and gate (E-RERAND).

    Compiles a Genprog-scale program cold at one coordinate, warms the
    per-function codegen cache, then rotates the link seed
    [rotations] times through {!R2c_core.Pipeline.compile_incremental},
    differentially fingerprinting sampled rotations against cold
    compiles at the same coordinates and comparing the text pages each
    loads to. Every rotated image is started as a process, timed apart
    from the relink. A final edit step changes one
    function's IR and asserts the rebuild recompiles exactly that
    function and still matches a cold compile of the edited program.

    The {!report} is deterministic at any Domain-pool width; wall-clock
    lives in {!timing}. *)

type report = {
  funcs : int;
  config : string;
  body_seed : int;
  base_link_seed : int;
  rotations : int;
  checked : int;  (** rotations differentially checked against cold *)
  identical : bool;  (** warm build and every checked rotation match cold *)
  loaded_identical : bool;
      (** every checked rotation loads to the same text pages as a cold
          compile at its coordinates *)
  warm_misses : int;  (** cache misses of the warm (first) build *)
  rotation_hits : int;
  rotation_misses : int;  (** must be 0: rotations recompile nothing *)
  edit_misses : int;  (** must be 1: the edited function only *)
  edit_missed : string list;
  edit_identical : bool;
  cache_entries : int;
}

(** [incr_ms] is the mean relink per rotation; [start_ms] the mean
    {!R2c_machine.Process.start} of the rotated image, timed apart. *)
type timing = { cold_ms : float; incr_ms : float; start_ms : float; speedup : float }

val run :
  ?funcs:int ->
  ?config:string ->
  ?body_seed:int ->
  ?base_link_seed:int ->
  ?rotations:int ->
  ?checked:int ->
  ?jobs:int ->
  unit ->
  report * timing

(** Violated criteria as [(check, detail)] pairs (empty = pass). The
    timing criterion (incremental
    rebuild at least [min_speedup] times faster than cold, default 10)
    binds only when [timing] is given — the deterministic half of the
    gate also serves the test battery, which must not gate on wall
    clock. *)
val gate : ?min_speedup:float -> ?timing:timing -> report -> (string * string) list

(** [results (r, t)] — the report's fields are deterministic, the
    timings host-timed. *)
val results : report * timing -> Results.t
