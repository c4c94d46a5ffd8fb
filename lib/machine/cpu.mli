(** The M64 interpreter.

    Executes a loaded image with full permission checking, the x86-64
    call/ret stack semantics the BTRA scheme builds on (Section 5.1), a
    16-byte stack-alignment check at calls, cycle accounting against a
    {!Cost.profile} (base cost + fetch bandwidth + icache misses), and the
    call-frequency counter used for Table 2 (tail jumps are not counted,
    matching the paper's instrumentation).

    Library calls are intercepted at dedicated text addresses
    ({!Image.builtin_names}); they model the unprotected glibc of
    Section 7.4.1. *)

(** A resolved observation site: fired after each retired instruction at
    one text address with the cycle and icache-miss deltas the step
    charged, and whether it transferred control via call. On a faulting
    step it fires once (with [called:false]) before the fault propagates,
    so post-mortem rings capture the detonating instruction. *)
type site = cycles:float -> misses:int -> called:bool -> unit

(** Per-step observation hook, applied in two stages: [obs ~rip] is
    resolved once per text address (lazily, into a dense per-CPU table)
    and the resulting {!site} fires on every step at that address. An
    observer that does its static work — symbol lookup, classification —
    before taking [~cycles] pays for it once per address, not per step;
    one written as a plain four-argument function still works, resolving
    to a partial application.

    Observed runs take tier 3 when a JIT runner is attached (the
    reference tier otherwise), and the deltas, fire order and fire count
    are identical on both. When a site fires, the registers, [insns], [calls], [depth]
    and — after a call — [rip] (the callee entry) are live; [cycles] is
    not (tier 3 keeps the running total in its own slot until it exits),
    so observers work from the deltas. When [None] — the default —
    stepping takes the bare interpreter path and cycle totals are
    bit-identical to an unobserved run. *)
type observer = rip:int -> site

type run_result = Halted | Fuel_exhausted | Faulted of Fault.t

type t = {
  mem : Mem.t;
  heap : Heap.t;
  image : Image.t;
  regs : int array;  (** 16 GPRs, indexed by [Insn.reg_index] *)
  ymm : int array;  (** 16 vector registers x 8 words (zmm width) *)
  mutable rip : int;
  mutable cmp_l : int;
  mutable cmp_r : int;
  mutable cycles : float;
  mutable insns : int;
  mutable calls : int;
  mutable depth : int;  (** current call depth (calls minus returns) *)
  mutable max_depth : int;  (** peak call depth over the run *)
  mutable halted : bool;
  mutable exit_code : int;
  profile : Cost.profile;
  icache : Icache.t;
  out : Buffer.t;  (** output of print_int / print_str *)
  input : string Queue.t;  (** bytes consumed by read_input *)
  mutable sensitive_log : (int * int) list;
      (** (rdi, rsi) of every [sensitive] builtin call — the
          attacker-success detector *)
  mutable strict_align : bool;
      (** check 16-byte stack alignment at every call (off by default:
          real hardware only faults on aligned vector accesses; test
          suites enable it to catch frame-layout bugs) *)
  shadow : int list ref;
      (** the backward-edge-CFI shadow stack, active when the image was
          deployed with [shadow_stack] (Section 8.2) *)
  inject : Inject.t option;
      (** chaos fault injector; [None] (the default) leaves execution
          untouched *)
  mutable observer : observer option;
      (** per-step hook ({!set_observer}); [None] (the default) costs
          nothing *)
  mutable sites : site array;
      (** the observer's resolved sites per text offset, filled on first
          fire; reset by {!set_observer} *)
  mutable btap : (t -> string -> unit) option;
      (** builtin-boundary tap ({!set_builtin_tap}); [None] (the default)
          costs nothing *)
  mutable tier3 : (t -> fuel:int -> run_result) option;
      (** the tier-3 JIT runner, installed by [Jit.attach] ({!set_tier3});
          [None] (the default) makes {!run} take the reference tier *)
}

(** [create ?strict_align ?inject ~profile ~mem ~heap image ~rip ~rsp] —
    registers zeroed except RSP. *)
val create :
  ?strict_align:bool ->
  ?inject:Inject.t ->
  profile:Cost.profile -> mem:Mem.t -> heap:Heap.t -> Image.t -> rip:int -> rsp:int -> t

(** [clone ?inject t] — a CPU in [t]'s exact state that evolves
    independently: memory is a copy-on-write {!Mem.clone} (so cloning is
    O(pages), not O(bytes)), and the heap allocator, registers, vector
    registers, flags, cycle count, counters, icache, output, input queue,
    shadow stack and sensitive log are copied. It gets [?inject] (default
    none) instead of [t]'s injector, and no observer, builtin tap or
    tier-3 runner: {!Loader.clone} arms it as {!Loader.load} arms a fresh
    CPU. A snapshot is a clone that is never run; a restore is a clone of
    the snapshot. *)
val clone : ?inject:Inject.t -> t -> t

val reg_get : t -> Insn.reg -> int

(** [step t] executes one instruction. Raises {!Fault.Fault}. *)
val step : t -> unit

(** [set_observer t obs] attaches (or, with [None], detaches) the per-step
    hook and drops every resolved site. At most one observer slot exists;
    attaching replaces the previous one. Callers that need several hooks
    compose them with {!tee} or {!attach_observer}. *)
val set_observer : t -> observer option -> unit

(** [tee first second] — one observer that resolves both at each address
    and fires [first]'s site, then [second]'s, on every step. *)
val tee : observer -> observer -> observer

(** [attach_observer ?tee t obs] — install [obs]. By default it replaces
    any observer already attached; with [~tee:true] that observer keeps
    firing first ([tee prev obs]). *)
val attach_observer : ?tee:bool -> t -> observer -> unit

(** Builtin-boundary tap: fired once per intercepted library call
    ([print_int], [read_input], [malloc], [sensitive], ... —
    {!Image.builtin_names}), on both tiers, immediately after
    the builtin's effect. At tap time the machine state still shows the
    call: arguments in RDI/RSI, the result in RAX, and any bytes a
    [read_input] delivered sitting in memory at RDI — everything a
    workload-capture recorder needs to snapshot the environment boundary.
    The tap charges nothing and never perturbs execution; a builtin whose
    dispatch faulted does not reach it. *)
type builtin_tap = t -> string -> unit

(** [set_builtin_tap t tap] attaches (or, with [None], detaches) the
    builtin-boundary tap. [None] (the default) costs nothing; an attached
    tap never moves {!run} off the tier it runs on. *)
val set_builtin_tap : t -> builtin_tap option -> unit

(** [run t ~fuel] steps until halt, fault, or [fuel] instructions. It takes
    the tier-3 runner [Jit.attach] installed — with or without an
    observer, compiling or never compiling — or else the reference
    dispatch. Tier 3 is contractually bit-identical to {!run_reference} in
    cycles, insns, icache misses, faults, output and observer fires. An
    attached injector forces the reference dispatch (its attachment is a
    tier-3 deopt trigger). *)
val run : t -> fuel:int -> run_result

(** [set_tier3 t f] installs (or, with [None], removes) the tier-3 runner
    {!run} dispatches to. Use [Jit.attach] rather than calling this
    directly. *)
val set_tier3 : t -> (t -> fuel:int -> run_result) option -> unit

(** [run_reference t ~fuel] — the slow tier of the two-version contract:
    steps via the reference (hash-probing) dispatch regardless of
    attachments. The differential tests run every program through both
    tiers and require identical architectural state and counters. *)
val run_reference : t -> fuel:int -> run_result

(** [run_until t ~fuel ~break] — {!run_reference} that also stops
    (returning [Ok ()]) just before executing the instruction at an
    address in [break]. It never takes tier 3, injector or not.
    Breakpoint membership is one integer compare per breakpoint
    per step; callers pass one or a few. *)
val run_until : t -> fuel:int -> break:int list -> (unit, run_result) result

(** [output t] — program output so far. *)
val output : t -> string

(** Shared interpreter internals for the tier-3 compiler
    ([lib/machine/jit.ml]) only. The JIT's cold loop funnels through the
    exact instruction semantics the reference tier uses, so the
    bit-identicality contract rests on one set of them. *)
module Internal : sig
  (** [site t rip] — the attached observer's resolved site for [rip]
      (resolving and memoizing it on first use). Only meaningful while an
      observer is attached. *)
  val site : t -> int -> site

  (** The sentinel filling the unresolved slots of [sites]. *)
  val unresolved : site

  (** [straight t pd ~marks ~longest ~from budget] — steps [t] through
      the predecoded text [pd] ({!Image.predecoded} of its image) with the
      reference tier's semantics, minus the injector, until it halts,
      [budget] instructions have retired, or an instruction transfers
      control (any rip other than its fall-through, builtins included)
      onto an address whose bit is set in [marks] (bit [k] of byte [k/8]
      for text offset [k]) or backward by less than [longest] bytes; in
      that last case it leaves the instruction's address in [from]. With
      an observer attached it retires at most one instruction, observed
      as {!step} observes one. Returns the budget left. Raises
      {!Fault.Fault}. *)
  val straight :
    t -> Image.pslot array -> marks:Bytes.t -> longest:int -> from:int ref -> int -> int
end

(** [push_input t s] queues bytes for [read_input]. *)
val push_input : t -> string -> unit
