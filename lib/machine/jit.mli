(** Tier-3 template JIT with on-stack replacement.

    Hot functions — found by cheap per-function call and loop-backedge
    counters — are compiled into flat arrays of OCaml closures:
    straight-line basic blocks fused, no per-step decode or dispatch
    probe, registers and the cycle counter in unboxed locals. Execution
    enters compiled code at function entries and (OSR) at any basic-block
    leader, and leaves it by materializing the complete interpreter frame
    — rip, registers, RSP, call depth, cycle/insn/icache counters — at
    every deopt trigger: fault, fuel exhaustion, a builtin call, a
    transfer out of compiled code, or an instruction the template
    compiler declines (injector attachment deopts one level higher, in
    {!Cpu.run}'s tier dispatch).

    Code that is not compiled runs through one cold loop — the bodies'
    shared decoded slots and the interpreter core — that probes for
    compiled code only where control arrives by a transfer. With both
    thresholds at [max_int] ({!never}: the JIT switched off) the runner is
    that loop alone, with no code cache at all.

    An attached {!Cpu.observer} does not deopt: the run executes observed
    templates — the function's plain templates, each wrapped once on
    first observed entry — which fire the observer's {!Cpu.site} after
    every instruction with the deltas {!Cpu.step} computes, and once on a
    faulting one. When a site fires, the registers, [insns], [calls],
    [depth] and, after a call, [rip] (the callee entry) are live in the
    {!Cpu.t}; [cycles] is not, because the running total sits in the
    JIT's own slot until compiled code exits, so observers work from the
    deltas.

    The contract is bit-identicality: {!Cpu.run} with tier 3 compiling,
    {!Cpu.run} with it never compiling, and {!Cpu.run_reference} produce
    identical cycles, insns, icache counters, faults, output, exit codes
    and peak depth on every program; observed, tier 3 and the reference
    tier also fire identical sites with identical deltas. [experiments
    jit] and the [jit] test suite enforce it.

    Compiling is split like linking: a function's plan — its scan, block
    structure, fetch-accounting constants and the effects that name no
    address — depends only on its body and the cost profile, and is
    derived once per body; a placement instantiates it, building the
    closures that bake in its addresses (icache lines, exec probes,
    branch and call targets, relocated operands). Compiled code is
    CPU-independent (closures receive the machine context as an
    argument), so the first run of an image publishes its code on the
    image and every process, respawn and pool worker of it — in any
    domain — shares it; and an image's plans live on its bodies, so every
    later placement of a body (every rotation of the program) adopts the
    plan on the function's first entry instead of compiling. A reader may
    miss a function another domain just compiled, never see one
    half-installed. Hotness counters and {!stats} stay per attachment. *)

type t
(** A JIT attachment: one CPU, its thresholds, its own counters. *)

type cache
(** A code cache. *)

type config = { call_threshold : int; backedge_threshold : int }
(** Hotness thresholds: compile a function after this many entries, or
    after this many loop backedges land inside it (whichever first). *)

(** Both thresholds at [max_int]: never compile, never run compiled
    code. What [~jit:false] and [R2C_JIT=0] attach. *)
val never : config

(** Counters of one attachment (or of every attachment handed the same
    record, see {!attach}). [compiled] counts functions it compiled from
    a fresh plan; [revalidated] counts functions it adopted — code another
    process of the image installed, or a plan an earlier placement of the
    body derived; [invalidated] counts stale plans ({!poison}), each
    recompiled. [tier3_insns]/[interp_insns] split retired
    instructions by tier; [entry_enters]/[osr_enters] count
    compiled-code entries at function entry vs at OSR points; [deopts]
    counts mid-function exits to the interpreter. *)
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

(** All counters zero. *)
val fresh_stats : unit -> stats

(** Global default used by {!Loader.load}/{!Process.start} when no
    explicit [?jit] is given. Initialised from [R2C_JIT] (off when set to
    [0]/[false]/[off]/[no], on otherwise). *)
val enabled : unit -> bool

(** [create_cache ~profile img] — a private empty cache serving [img]
    under cost profile [profile] and nothing else, keeping its own plans
    rather than the bodies' shared ones, so its first run starts cold
    whatever ran [img] before. Use it from one domain at a time. *)
val create_cache : profile:Cost.profile -> Image.t -> cache

(** [attach ?config ?cache ?stats cpu] installs the tier-3 runner on [cpu]
    ({!Cpu.set_tier3}) with thresholds [?config] (default 8 calls / 24
    backedges). Without [?cache] it runs on the code of [cpu]'s image,
    built by its first run from the bodies' shared plans; with one, on
    that private cache, which must have been made for [cpu]'s image and
    cost profile ([Invalid_argument] otherwise). Counts go to [?stats]
    (default a fresh record). *)
val attach : ?config:config -> ?cache:cache -> ?stats:stats -> Cpu.t -> t

(** [poison j ~entry] corrupts the cached entry for the function at
    [entry] the way an interrupted rerandomization would strand it: its
    body's plan goes stale, so no placement instantiates it again, and
    the code [j]'s cache installed from it is uninstalled and raises if it
    ever runs. Returns false if no plan is cached for that body. The next
    time the function is hot it must be invalidated and recompiled — the
    regression suite asserts stale code never executes. A test hook: not
    for use while other domains run the image. *)
val poison : t -> entry:int -> bool
