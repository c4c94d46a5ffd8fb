(** Tier-3 template JIT with on-stack replacement (ROADMAP item 1).

    Hot functions — found by cheap per-function call and loop-backedge
    counters, zero-cost when the JIT is off — are compiled from their
    predecoded form into flat arrays of OCaml closures: straight-line
    basic blocks fused, no per-step decode or dispatch probe, registers
    and the cycle counter in unboxed locals. Execution enters compiled
    code at function entries and (OSR) at any basic-block leader, and
    leaves it by materializing the complete interpreter frame — rip,
    registers, RSP, call depth, cycle/insn/icache counters — at every
    deopt trigger: fault, fuel exhaustion, a builtin call, a transfer out
    of compiled code, or an instruction the template compiler declines
    (injector attachment deopts one level higher, in {!Cpu.run}'s tier
    dispatch).

    An attached {!Cpu.observer} does not deopt: the run executes observed
    templates — a second compilation of the same blocks, built per
    function on first observed entry — which fire the observer's
    {!Cpu.site} after every instruction with the deltas {!Cpu.step}
    computes, and once on a faulting one. When a site fires, the
    registers, [insns], [calls], [depth] and, after a call, [rip] (the
    callee entry) are live in the {!Cpu.t}; [cycles] is not, because the
    running total sits in the JIT's own slot until compiled code exits,
    so observers work from the deltas.

    The contract is three-way bit-identicality: {!Cpu.run} with tier 3,
    {!Cpu.run} with the JIT disabled (fast interpreter), and
    {!Cpu.run_reference} produce identical cycles, insns, icache
    counters, faults, output, exit codes and peak depth on every program;
    observed, tier 3 and the reference tier also fire identical sites
    with identical deltas. [experiments jit] and the [jit] test suite
    enforce it.

    Code caches are per-{!Process} and CPU-independent (closures receive
    the machine context as an argument), so a cache stays warm across
    {!Process.restart}. Entries carry a digest of the decoded body; after
    an incremental rerandomization retargets the cache, each entry is
    revalidated or invalidated on next use — stale code never runs. *)

type t
(** A JIT attachment: one CPU wired to a code cache. *)

type cache
(** A code cache, shareable across the respawns of one process. *)

type config = { call_threshold : int; backedge_threshold : int }
(** Hotness thresholds: compile a function after this many entries, or
    after this many loop backedges land inside it (whichever first). *)

val default_config : config

(** Lifetime counters of a cache (monotonic; shared by every CPU attached
    to it). [tier3_insns]/[interp_insns] split retired instructions by
    tier; [entry_enters]/[osr_enters] count compiled-code entries at
    function entry vs at OSR points; [deopts] counts mid-function exits
    to the interpreter. *)
type stats = {
  mutable compiled : int;
  mutable revalidated : int;
  mutable invalidated : int;
  mutable entry_enters : int;
  mutable osr_enters : int;
  mutable deopts : int;
  mutable tier3_insns : int;
  mutable interp_insns : int;
}

(** Global default used by {!Loader.load}/{!Process.start} when no
    explicit [?jit] is given. Initialised from [R2C_JIT] (off when set to
    [0]/[false]/[off]/[no], on otherwise). *)
val enabled : unit -> bool

(** [create_cache ?config ~profile img] — an empty cache for images laid
    out like [img] under cost profile [profile]. *)
val create_cache : ?config:config -> profile:Cost.profile -> Image.t -> cache

(** [attach ?config ?cache cpu] installs the tier-3 runner on [cpu]
    ({!Cpu.set_tier3}). Without [?cache] a private cache is created; with
    one, the cache is adopted — retargeting it (new image generation, or
    a full reset if the cost profile differs) as needed. *)
val attach : ?config:config -> ?cache:cache -> Cpu.t -> t

(** [detach cpu] removes the tier-3 runner; [cpu] falls back to the fast
    interpreter tier. *)
val detach : Cpu.t -> unit

(** [run j ~fuel] — the tier-3 driver itself: compiled blocks where hot
    code exists, the shared interpreter core everywhere else. Same
    results contract as {!Cpu.run}. *)
val run : t -> fuel:int -> Cpu.run_result

val stats : t -> stats
val cache_stats : cache -> stats

(** [poison j ~entry] corrupts the cached entry for the function at
    [entry] (stale generation, wrong digest) the way an interrupted
    rerandomization would strand it. Returns false if nothing is cached
    there. The next entry attempt must invalidate and recompile it —
    the regression suite asserts stale code never executes. *)
val poison : t -> entry:int -> bool
