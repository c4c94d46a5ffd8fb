(** The IR's flow facts, defined once: def/use, block reachability and
    the fixpoint instances every analysis of an [Ir.func] reads.

    One internal solver, parameterized on a join-semilattice, runs a
    deterministic round-robin worklist (blocks in layout order for
    forward problems, reverse layout order for backward ones), so fact
    tables — and everything derived from them, lint findings included —
    are reproducible across runs and job counts. It builds only the
    adjacency its direction reads, and a block whose incoming fact is
    unchanged since the last sweep is not re-transferred.

    Three instances ship with the framework: liveness (backward; register
    allocation's live ranges and the translation validator's block
    boundaries), may-uninitialized vars (forward; {!Validate.uninit_reads}
    is its only client-facing form), and conditional constant propagation
    (forward, with edge executability so code behind a statically-false
    branch is neither folded nor flagged).

    Liveness and the uninit analysis accept any var number. Constant
    propagation (and so {!program_stats}) has a precondition: vars lie in
    [[0, nvars)] and [nparams <= nvars], as {!Validate.check} enforces;
    it raises on a var outside that range. *)

(** [reachable f] — per block (by position in [f.blocks]), whether some
    path from the entry block reaches it. Branches to unknown labels are
    ignored; with duplicated labels the last block carrying a label is
    its target. *)
val reachable : Ir.func -> bool array

(** The vars an instruction or terminator reads, in {!Ir.instr_operands}
    order (repeats kept). *)
val instr_uses : Ir.instr -> Ir.var list

val term_uses : Ir.term -> Ir.var list

module Iset : Set.S with type elt = int

module Liveness : sig
  type t = {
    live_in : Iset.t array;  (** vars live at block entry *)
    live_out : Iset.t array;  (** vars live at block exit *)
    iterations : int;
  }

  val compute : Ir.func -> t

  (** [before t f bi] — per-instruction table for block [bi]: element
      [k] is the set of vars live immediately before instruction [k];
      the final element (index [List.length body]) is the set live
      before the terminator. *)
  val before : t -> Ir.func -> int -> Iset.t array
end

module Uninit : sig
  type t = {
    maybe_in : Iset.t array;
        (** per block: non-parameter vars that some path from the entry
            reaches with no definition *)
    iterations : int;
  }

  val compute : Ir.func -> t

  (** [reads t f] — every read of a var in the may-uninit set at that
      point, as [(var, block index, instruction index)] (instruction
      index [List.length body] for the terminator), in (block,
      instruction, operand) order. *)
  val reads : t -> Ir.func -> (Ir.var * int * int) list
end

module Constprop : sig
  (** Value domain: unvisited, a single known constant, the address of
      IR slot [i] plus a constant byte offset (feeds the out-of-bounds
      slot-offset lint), or statically varying. *)
  type cval = Cundef | Cconst of int | Cslot of int * int | Cvaries

  type t = {
    env_in : cval array option array;
        (** per-block var environment at entry; [None] = unreachable
            under constant conditions *)
    executable : bool array;
    iterations : int;
  }

  val compute : Ir.func -> t

  (** [eval env op] — abstract value of an operand. [Global]/[Func]
      operands are link-time constants with unknown numeric value, so
      they evaluate to [Cvaries]. *)
  val eval : cval array -> Ir.operand -> cval

  (** [before t f bi] — environment before each instruction of an
      executable block (final element: before the terminator). Raises
      [Invalid_argument] on a non-executable block. *)
  val before : t -> Ir.func -> int -> cval array array
end

(** Aggregate dataflow statistics for the audit table. [folded] counts
    executable instructions whose result folds to a known constant
    without being a literal [Mov _, Const _]. [max_iterations]
    is the worst sweep count over liveness, uninit and constant
    propagation, over all functions. Same precondition as the instances:
    raises on a var outside [[0, nvars)]. *)
type stats = { folded : int; max_iterations : int }

val program_stats : Ir.program -> stats
