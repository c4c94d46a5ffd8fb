(** Code-generation options: the hook points that diversifying passes fill.

    The compiler itself is deterministic; every randomized decision of
    Sections 4 and 5 — register pool order, stack slot permutation, prolog
    traps, NOP insertion, BTRA call-site plans, BTDP instrumentation,
    function and global order — arrives through this record. [default]
    performs no diversification, which is the paper's baseline ("the same
    compiler version and flags but with R2C disabled"). *)

(** How a call site writes its BTRAs (Sections 5.1, 5.1.2 and 7.1).
    [Push_naive] is the kR^X-style decoy scheme the paper argues against:
    only decoys are pre-pushed and the return address appears solely when
    the call instruction writes it — opening the race window of
    Section 5.1. [Sse_setup]/[Avx512_setup] are the 16-/64-byte variants
    discussed in Section 7.1. *)
type btra_setup = Push_setup | Push_naive | Sse_setup | Avx_setup | Avx512_setup

(** A call-site BTRA plan. Symbols are (name, byte offset) pairs resolved
    at link time; they point into booby-trap functions. [pre] must have
    even length (stack alignment, Section 5.1); for direct calls [post]
    must have exactly the callee's post-offset length. [array_global] names
    the call-site-specific data array of Figure 4 (required for
    [Avx_setup]); its contents must be, low to high: post (padded to make
    the total a multiple of 4), return-address symbol, pre. *)
type callsite_plan = {
  pre_syms : (string * int) list;
  post_syms : (string * int) list;
  setup : btra_setup;
  array_global : string option;
  avx_pad : int;  (** extra decoy words below [post] to pad the batch width *)
  dummy_sym : (string * int) option;
      (** [Push_naive] only: the decoy occupying the return-address slot
          until the call overwrites it *)
  check_sym : (int * (string * int)) option;
      (** Section 7.3's hardening: after the call returns, verify that the
          [i]-th pre-BTRA still holds the given value; a mismatch means an
          attacker has been probing return-address candidates — trap. *)
}

(** What the compiler knows about a call site's callee. *)
type callee_kind =
  | Known of string  (** direct call to compiled code *)
  | Unknown_indirect  (** through a function pointer *)
  | Lib of string  (** builtin — unprotected code, Section 7.4.1 *)

(** A function of raw machine code appended at layout (booby-trap
    functions). *)
type raw_func = {
  rname : string;
  rinsns : R2c_machine.Insn.t list;
  rbooby_trap : bool;
}

type t = {
  mdesc : Mdesc.t;
      (** the machine description code generation and layout consult for
          every register-file / calling-convention / encoder constant *)
  reg_pool : fname:string -> R2c_machine.Insn.reg list;
      (** allocatable (callee-saved) registers, in allocation order; must
          draw from [mdesc.callee_saved] *)
  slot_perm : fname:string -> n:int -> int array;
      (** permutation of frame-slot order (stack slot randomization) *)
  slot_pad_bytes : fname:string -> int;
      (** extra frame padding, a multiple of 8 *)
  prolog_traps : fname:string -> int;
      (** trap instructions jumped over at function entry (Section 4.3) *)
  post_offset_words : fname:string -> int;
      (** the callee-chosen number of BTRAs after the return address *)
  nops_before_call : fname:string -> site:int -> int list;
      (** NOP widths inserted at the call site (Section 4.3) *)
  callsite_btra : fname:string -> site:int -> callee:callee_kind -> callsite_plan option;
  btdp_indices : fname:string -> writes_frame:bool -> int list;
      (** per-function BTDP pointer-array indices; one stack slot each *)
  btdp_array_sym : string option;
      (** data-section slot holding the heap pointer-array address *)
  func_alias : string -> string;
      (** code-pointer substitution: the symbol actually materialized when a
          function's address is taken (identity by default). Defense models
          use it for Readactor-style code-pointer hiding: the alias names a
          trampoline, so leaked function pointers reveal only trampoline
          addresses. Applies to [Ir.Func] operands and to function
          [Sym_addr] initialisers. *)
  oia : bool;
      (** offset-invariant addressing (Section 5.1.1): the caller prepares
          the frame pointer for callees with stack arguments. Mandatory
          whenever BTRAs are enabled; measurable alone. *)
  func_order : string array -> int array;
      (** text-section function order (function shuffling): given the
          functions' names in input order, a permutation of their indices,
          the [k]-th entry naming the [k]-th function in the text. Called
          once per layout with the same array, built once per link plan. *)
  global_order : Ir.global array -> int array * int array;
      (** data-section order with post-padding (global shuffling): given
          the globals in input order, a permutation of their indices as
          [func_order]'s, and the padding bytes after the global in each
          slot, one per slot *)
  func_pad : fname:string -> int;  (** padding bytes after a function *)
  raw_funcs : raw_func list;
  text_perm : R2c_machine.Perm.t;
  shadow_stack : bool;
      (** deploy with backward-edge CFI (a hardware/runtime shadow stack):
          every return is checked against the true call chain — the
          Section 8.2 enforcement comparison *)
  constructors : string list;  (** run before [main], in order *)
  extra_globals : Ir.global list;
      (** synthesized data (BTRA AVX arrays, BTDP array slot, decoys) *)
  stack_bytes : int;
  text_slide : int;
  data_slide : int;
  heap_slide : int;
}

(** No diversification; text mapped read-execute (the pre-XOM legacy
    baseline); zero slides. *)
val default : t

(** Fisher–Yates-free identity permutation helper. *)
val identity_perm : int -> int array
