(** E-JIT: three-lane comparison on the SPEC-like workload set plus one
    wide Genprog program (300 functions: short, warm, call-heavy).

    Each workload is compiled once under a diversity config, then run
    through three lanes:

    - {b reference}: {!R2c_machine.Cpu.run_reference}, the plain decoded
      interpreter the validator trusts;
    - {b fast}: {!R2c_machine.Cpu.run} with the JIT switched off — tier 3
      never compiling, i.e. its cold loop alone;
    - {b tier 3}: {!R2c_machine.Cpu.run} with the template JIT compiling,
      timed in steady state: the timed run shares the code cache a
      warm-up run populated, the regime every later process of an image
      is in.

    The bit-identicality contract is asserted per workload (cycles as
    IEEE-754 bits, instruction and icache counters, call depth, output,
    exit code, run result), and the gate additionally demands a
    wall-clock floor for tier 3 over the reference tier.

    An observed lane then runs each workload with an
    {!R2c_obs.Profile} attached, once on the reference tier and once on
    tier 3 (same warm cache), and requires bit-identical profiles: every
    row (floats as IEEE-754 bits), every call edge and the total. *)

type row = {
  name : string;
  insns : int;
  cycles_bits : int64;  (** [Int64.bits_of_float] of the cycle total *)
  icache_misses : int;
  identical : bool;  (** all three lanes bit-identical on this workload *)
  profile_identical : bool;
      (** profiled tier 3 and profiled reference runs produced the same
          profile, and the same counters as the unprofiled runs *)
  compiled : int;  (** functions compiled (warm + timed runs) *)
  entry_enters : int;  (** tier-3 entries at function entry *)
  osr_enters : int;  (** tier-3 entries at loop backedges (OSR) *)
  deopts : int;
  tier3_insns : int;
  interp_insns : int;
}

type report = {
  seed : int;
  config : string;
  fuel : int;
  rows : row list;
  identical : bool;  (** every row [identical] and [profile_identical] *)
  compiled_total : int;
  osr_total : int;
  tier3_share : float;
      (** fraction of instructions the JIT-attached runs retired in
          compiled code (warm-up included) *)
}

type timing = {
  ref_ms : float;
  fast_ms : float;
  jit_ms : float;
  speedup_fast : float;  (** reference / never-compiling tier 3 *)
  speedup_jit : float;  (** reference / tier 3 *)
  ref_obs_ms : float;  (** profiled reference tier *)
  jit_obs_ms : float;  (** profiled tier 3 *)
  speedup_obs : float;  (** profiled reference / profiled tier 3 *)
}

(** [run ?seed ?config ?fuel ?jobs ()] — compile the 13 workloads
    ([?jobs] fans the compilations over the domain pool; the measured
    runs are always serial) and produce the report plus wall-clock
    timings. Defaults: seed 3, config ["full"], fuel 50M. *)
val run :
  ?seed:int -> ?config:string -> ?fuel:int -> ?jobs:int -> unit -> report * timing

(** [gate ?min_speedup ?timing r] — failures as [(check, detail)]
    pairs, empty when the run passes. Deterministic checks (three-way identity everywhere, profiled
    and unprofiled, every
    workload compiled something, OSR actually exercised, tier-3
    instruction share >= 50%) always apply; the [min_speedup] floor
    (default 5x over the reference tier) applies when [timing] is
    given. *)
val gate : ?min_speedup:float -> ?timing:timing -> report -> (string * string) list

(** [results (r, t)] — the report's fields and per-workload rows are
    deterministic, the timings host-timed. *)
val results : report * timing -> Results.t
