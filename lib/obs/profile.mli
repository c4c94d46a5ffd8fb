(** Cycle / instruction / icache profiler, a staged {!Cpu.observer}.

    Attributes every retired instruction's cycle and icache-miss deltas to
    the covering function (via the image's defender-side symbol metadata),
    builds a flat profile plus a caller→callee edge profile, and splits
    each function's cycles into the components the paper's evaluation
    attributes diversification overhead to (Sections 6.1–6.3):

    - {b call-site} — BTRA setup shapes: immediate pushes, vector
      loads/stores of decoy batches, [vzeroupper], and the call-site NOPs
      of Section 4.3;
    - {b prologue} — instructions inside the trap-padded prologue region
      ([entry ..] the compiler's [<f>.Lprolog] label);
    - {b icache} — miss-penalty cycles, wherever charged;
    - the remainder is ordinary execution ({b other}).

    Every address of one function and kind (prologue, call-site, other)
    shares one site, built on first sight. Resolving an address — once
    per address, when the CPU first fires it — is O(1) and allocates
    nothing once its site exists: the decoder's chunk lookup
    ({!Image.locate}), an array from chunk to function built by
    {!create}, one compare against the function's prologue bound, and the
    body's instruction at that slot. Each step only adds its deltas into
    per-function columns. A profiled run therefore runs on tier 3 when a
    JIT is attached, and its rows, edges and totals are bit-identical to
    a profiled {!Cpu.run_reference}.

    The split is exactly additive: the four components of a row sum to the
    row's cycles, and row sums equal the CPU's own totals. Intercepted
    library entries appear as ["<name>"] pseudo-functions. *)

open R2c_machine

type row = {
  name : string;
  cycles : float;
  insns : int;
  misses : int;  (** icache misses charged while executing this function *)
  calls : int;  (** times entered via a call instruction *)
  callsite_cycles : float;
  prologue_cycles : float;
  icache_cycles : float;
}

type t

(** [create ~profile img] — a profiler for one image; attach it to any
    number of CPUs running that image (accumulates across them). *)
val create : profile:Cost.profile -> Image.t -> t

(** [attach ?tee t cpu] — install the profiling observer. By default it
    replaces any other observer on [cpu] (the historical semantics the
    worker pool's fresh-ring-per-child logic relies on); with [~tee:true]
    a previously attached observer keeps firing first on every step, so a
    profiler can ride alongside a trace ring (see {!Cpu.attach_observer}). *)
val attach : ?tee:bool -> t -> Cpu.t -> unit

(** [rows t] — per-function rows, descending by cycles; only functions
    that executed at least one instruction appear. *)
val rows : t -> row list

(** [total t] — the column sums as one row (name ["total"]). By
    construction equals the observed CPUs' own cycle/insn/miss totals. *)
val total : t -> row

(** [fingerprint t] — the total, every row and every call edge in one string,
    floats as IEEE-754 bits: two profiles are bit-identical exactly when
    their fingerprints are equal. *)
val fingerprint : t -> string

(** [report ?top ?title t] — ASCII "top functions" table plus the hottest
    call edges ([caller -> callee count], count descending, then caller
    name, then callee name). *)
val report : ?top:int -> ?title:string -> t -> string

(** [publish t ~prefix metrics] — counters ([<prefix>_cycles_total],
    [_insns_total], [_icache_misses_total], [_calls_total]) that read
    {!total} when the registry renders, and a histogram of the
    per-function cycles at publish time. [prefix] is sanitized to a valid
    metric name. *)
val publish : t -> prefix:string -> Metrics.t -> unit
