(** The compiler's intermediate representation.

    A small, explicitly-typed-free register IR: functions of basic blocks
    over dense virtual registers, static stack slots (the unit of the stack
    slot randomization of Section 4.2), globals with symbolic initialisers
    (the unit of global variable shuffling), direct/indirect/library calls.
    Workload programs, the vulnerable evaluation target, and the
    R2C-generated runtime constructor are all expressed in it. *)

type var = int
(** Virtual register, dense in [0, nvars). Parameters are vars
    [0..nparams-1]. *)

type label = int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type operand =
  | Const of int
  | Var of var
  | Global of string  (** address of a global *)
  | Func of string  (** address of a function *)

type callee =
  | Direct of string
  | Indirect of operand  (** through a function pointer *)
  | Builtin of string  (** intercepted library function *)

type instr =
  | Mov of var * operand
  | Binop of var * binop * operand * operand
  | Cmp of var * cmp * operand * operand  (** 0/1 result *)
  | Load of var * operand * int  (** var := [base + off] (64-bit) *)
  | Load8 of var * operand * int
  | Store of operand * int * operand  (** [base + off] := value *)
  | Store8 of operand * int * operand
  | Slot_addr of var * int  (** var := address of local stack slot i *)
  | Call of var option * callee * operand list

type term =
  | Ret of operand option
  | Br of label
  | Cond_br of operand * label * label  (** nonzero -> first label *)

type block = { lbl : label; body : instr list; term : term }

type func = {
  name : string;
  nparams : int;
  nvars : int;
  slots : int array;  (** local stack slot sizes in bytes *)
  blocks : block list;  (** entry block first *)
}

type init_item =
  | Word of int
  | Sym_addr of string  (** address of a function or global *)
  | Sym_addr_off of string * int
      (** symbol address plus byte offset — BTRA targets inside booby-trap
          function bodies *)
  | Str of string  (** raw bytes, NUL included only if given *)

type global = {
  gname : string;
  gsize : int;  (** bytes; at least the initialiser footprint *)
  ginit : init_item list;
}

type program = { funcs : func list; globals : global list; main : string }

val find_func : program -> string -> func option

(** [init_footprint items] — bytes covered by the initialiser list. *)
val init_footprint : init_item list -> int

(** [program_size p] — rough size: number of instructions. *)
val program_size : program -> int

(** {2 Operands, definitions and successors}

    The one place the IR's def/use vocabulary is spelled out; {!Dataflow}
    and every pass that walks operands build on these. *)

(** [instr_operands i] — the operands [i] reads, in evaluation order: an
    indirect callee before the arguments, a store's base before its value. *)
val instr_operands : instr -> operand list

(** [instr_with_operands i ops] — [i] with its operands replaced by [ops]
    (same order and arity as {!instr_operands}; [Invalid_argument]
    otherwise). *)
val instr_with_operands : instr -> operand list -> instr

(** [map_instr_operands f i] — [i] with [f] applied to every operand. *)
val map_instr_operands : (operand -> operand) -> instr -> instr

(** [instr_def i] — the var [i] defines, if any. *)
val instr_def : instr -> var option

(** [term_operands t] — the operand a terminator reads, if any. *)
val term_operands : term -> operand list

(** [map_term_operands f t] — [t] with [f] applied to its operand. *)
val map_term_operands : (operand -> operand) -> term -> term

(** [term_succs t] — successor labels in order (taken arm first). *)
val term_succs : term -> label list
