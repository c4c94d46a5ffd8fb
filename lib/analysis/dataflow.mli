(** Generic worklist dataflow over [Ir] functions.

    One internal solver, parameterized on a join-semilattice, runs a
    deterministic round-robin worklist (blocks in layout order for
    forward problems, reverse layout order for backward ones), so fact
    tables — and everything derived from them, lint findings included —
    are reproducible across runs and job counts.

    Three instances ship with the framework: liveness (backward),
    reaching definitions (forward, with virtual "uninitialized" def
    sites), and conditional constant propagation (forward, with edge
    executability so code behind a statically-false branch is neither
    folded nor flagged). These are
    exactly the facts the translation validator ({!Tval}) and the
    ROADMAP tier-3 OSR work need at block boundaries. *)

(** Block-graph helpers, shared by the instances and exposed for tests
    and for {!Tval}. Blocks are indexed by their position in
    [f.blocks]. *)

val succs : Ir.func -> int list array
val preds : Ir.func -> int list array
val instr_uses : Ir.instr -> Ir.var list
val instr_defs : Ir.instr -> Ir.var list
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

module Reaching : sig
  (** A definition site. [Uninit v] is the virtual "no definition yet"
      site every non-parameter var carries at function entry; if one
      reaches a read, the read may observe an uninitialized var. *)
  type site =
    | Param of Ir.var
    | Uninit of Ir.var
    | Def of int * int  (** block index, instruction index *)

  type t = {
    sites : site array;  (** def id -> site *)
    site_var : int array;  (** def id -> var defined *)
    reach_in : Iset.t array;  (** def ids reaching block entry *)
    reach_out : Iset.t array;
    iterations : int;
  }

  val compute : Ir.func -> t
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

  (** Number of executable instructions whose result folds to a known
      constant without being a literal [Mov _, Const _]. *)
  val folded : t -> Ir.func -> int
end

(** Aggregate dataflow statistics for the audit table. [max_iterations]
    is the worst sweep count over all three analyses and functions. *)
type stats = { folded : int; max_iterations : int }

val program_stats : Ir.program -> stats
