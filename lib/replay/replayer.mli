(** Standalone replay of a [.r2cr] trace with a profile-fidelity gate.

    Replay recompiles the embedded program under the recorded
    diversification coordinates ({!Trace.build} — same config, same seed,
    same cost model), stubs the environment by pre-queueing the recorded
    [read_input] responses ({!Trace.feeds}), and runs to completion on
    the default tier (no hooks attached). The run is fully
    deterministic, so the measured profile is compared against the
    recorded {!Trace.expect}: cycles, instructions and icache traffic
    must agree within a relative tolerance (default 1%), exit code and
    output digest exactly. A reduced trace only survives reduction if it
    still passes this gate, so every [.r2cr] in the corpus is a
    regression benchmark for interpreter, compiler and cost model at
    once. *)

type run = {
  r_cycles : float;
  r_insns : int;
  r_accesses : int;
  r_misses : int;
  r_exit : int;
  r_output_len : int;
  r_output_hash : int64;
}

type verdict = {
  result : run;
  failures : string list;  (** empty means the gate passed *)
}

(** [execute ?image t] — recompile, feed, run; the measured profile.
    Errors on fuel exhaustion or fault. With [?image] the recompile is
    skipped and the given image runs instead — the caller asserts it was
    built at the trace's recorded coordinates (the incremental-rebuild
    regression path substitutes a cache-backed rebuild here and lets the
    fidelity gate vouch for it). *)
val execute : ?image:R2c_machine.Image.t -> Trace.t -> (run, string) result

(** [check ?tolerance t] — {!execute} plus the fidelity comparison
    against [t.expect]. Counter comparisons are relative
    ([|got - want| / max 1 |want|]); exit code, output length and output
    hash are exact. *)
val check :
  ?tolerance:float -> ?image:R2c_machine.Image.t -> Trace.t -> (verdict, string) result
