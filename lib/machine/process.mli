(** A running process: image + CPU + crash/restart bookkeeping.

    Restart keeps the same image (and therefore the same randomized layout),
    modelling the worker-respawn behaviour of nginx/Apache/OpenSSH that
    Blind ROP exploits (Section 4, [11]); detection events (booby traps,
    guard pages) are accumulated across restarts — they are what a
    monitoring system would see.

    Fuel is a per-lifetime budget: it is consumed across [run]/[run_until]
    segments and refilled only by [restart] (or a fresh [start]). The
    supervision layer ({!R2c_runtime.Pool}) caps individual segments with
    the [?fuel] argument to implement per-request timeouts. *)

type outcome = Exited of int | Crashed of Fault.t | Timeout

type t = {
  image : Image.t;
  profile : Cost.profile;
  fuel : int;
  strict_align : bool;
  inject : Inject.t option;  (** chaos injector, re-attached on restart *)
  jit : bool;  (** tier 3 compiles hot code in each incarnation *)
  jit_stats : Jit.stats option;
      (** the process's own tier-3 counters, summed over its
          incarnations; the compiled code itself lives in the image's
          cache, so respawned workers and every other process of the
          image start with it already compiled *)
  mutable cpu : Cpu.t;
  mutable fuel_left : int;  (** remaining lifetime budget, in instructions *)
  mutable detections : Fault.t list;
  mutable crashes : int;
  mutable restarts : int;
}

(** [start ?profile ?fuel ?strict_align ?inject ?jit image] loads the
    image; nothing runs yet. Default profile {!Cost.epyc_rome}, default
    fuel 50M instructions, strict alignment off, no injection. [?jit]
    (default {!Jit.enabled}) lets tier 3 compile into the image's shared
    code cache; [~jit:false] runs tier 3 never compiling. An injector
    forces the reference tier. No JIT state is built here: the image's
    cache is built by its first run. *)
val start :
  ?profile:Cost.profile -> ?fuel:int -> ?strict_align:bool -> ?inject:Inject.t ->
  ?jit:bool -> Image.t -> t

(** [run ?fuel t] — run to halt/fault/fuel, recording crashes and
    detections. [?fuel] caps this segment below the remaining lifetime
    budget (per-request timeout); exceeding either yields [Timeout]. *)
val run : ?fuel:int -> t -> outcome

(** [run_until ?fuel t ~break] — run up to an address in [break]; [`Hit]
    means the process is stopped there (e.g. a blocked victim thread whose
    stack the attacker inspects). *)
val run_until : ?fuel:int -> t -> break:int list -> [ `Hit | `Done of outcome ]

(** [resume ?fuel t ~break] — continue [t] from a breakpoint: step over
    the instruction at [rip] when it is in [break] (a plain {!run_until}
    would stop in place), then {!run_until}. The step is charged to
    neither fuel budget. A fault of the stepped instruction is recorded
    like any crash and returned as [`Step_fault]. *)
val resume :
  ?fuel:int -> t -> break:int list -> [ `Hit | `Done of outcome | `Step_fault of Fault.t ]

(** [record_fault t f] — count a crash of [t], and a detection when [f]
    is one: what {!run} records for a fault it returns. For faults raised
    outside a run, such as an attacker's wild memory access. *)
val record_fault : t -> Fault.t -> unit

(** A post-warmup snapshot: the state a freshly (re)started process is in
    once a warmup has brought it to its serving point. The paper's pre-fork
    servers fork their workers after initialisation, so each child starts
    with R2C's BTDP constructor already run; a process that adopts a
    snapshot starts the same way instead of re-running the constructor.
    Memory is shared copy-on-write ({!Mem.clone}) between the snapshot and
    every process restored from it. *)
type snapshot

(** [warm_until ?fuel t ~break snap] — the warmup of a freshly started or
    restarted [t] (nothing run, no input queued): bring it to an address
    in [break], by restoring [snap] or by running.

    - [`Restored]: [t] adopted [snap] — CPU state (memory, heap, registers,
      flags, cycles, counters, icache, output, shadow stack, sensitive
      log), lifetime fuel and the injector's RNG are exactly what running
      the warmup would have left. It is stopped at the break, with no
      observer attached.
    - [`Hit s]: the warmup ran to the break. [s] is its snapshot when
      there was no [snap] and the run was {e quiet}: the injector fired
      nothing.
    - [`Done o]: the warmup ran and ended otherwise.

    [snap] is adopted only if it was captured with the same image, cost
    profile, alignment mode, fuel, [?fuel] cap and injector rates, and the
    injector check passes: each of [t]'s next [n] injector draws, [n] being
    the draws the captured run made, is at or above the largest rate, so
    re-running it would fire nothing and take the same path
    ({!Inject.skip_quiet}). The RNG then advances past the [n] draws.
    Otherwise [t] and its RNG are untouched and the warmup runs. *)
val warm_until :
  ?fuel:int -> t -> break:int list -> snapshot option ->
  [ `Restored | `Hit of snapshot option | `Done of outcome ]

(** [restart t] — fresh CPU and memory from the same image, and a full
    fuel budget (consistent with [start]). Input queue and output start
    empty; detection history is preserved. *)
val restart : t -> unit

val outcome_to_string : outcome -> string

(** Accessors. *)

val cycles : t -> float

val insns : t -> int
val calls : t -> int

(** [max_depth t] — peak call depth of the current child (resets with the
    CPU on {!restart}). *)
val max_depth : t -> int

(** Cumulative icache counters of the current child. *)

val icache_misses : t -> int

val icache_accesses : t -> int

(** [fuel_left t] — remaining lifetime fuel. *)
val fuel_left : t -> int

(** [maxrss_bytes t] — peak resident set, the Section 6.2.5 metric. *)
val maxrss_bytes : t -> int

(** [jit_stats t] — this process's own tier-3 counters over all its
    incarnations (compilations, adoptions, OSR entries, tier split), not
    the image cache's totals; [None] when the JIT is off. *)
val jit_stats : t -> Jit.stats option

val output : t -> string
val sensitive_log : t -> (int * int) list

(** [detected t] — true if any booby trap or guard page fired so far. *)
val detected : t -> bool
