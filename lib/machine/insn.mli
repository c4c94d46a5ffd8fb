(** The M64 instruction set — an x86-64-like ISA.

    The subset is exactly what the R2C code generator needs: the implicit
    push/overwrite semantics of [call]/[ret] that the BTRA setup of Figure 3
    exploits, AVX2-style 256-bit loads/stores for the optimized setup of
    Figure 4, variable-width NOPs and trap instructions for the
    sub-function randomization of Section 4.3.

    Instructions carry symbolic immediates ({!constructor-Sym}) until the linker
    resolves them; executing an unresolved instruction is a program error. *)

type reg =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

val reg_index : reg -> int
val reg_of_index : int -> reg
val reg_to_string : reg -> string

(** Immediate values: concrete, or a symbol plus byte offset resolved at
    link time (function entries, globals, booby-trap targets, GOT slots). *)
type imm = Abs of int | Sym of string * int

type scale = S1 | S2 | S4 | S8

val scale_factor : scale -> int

(** [base + index*scale + disp]; [disp] may be symbolic (globals). *)
type mem_operand = {
  base : reg option;
  index : (reg * scale) option;
  disp : imm;
}

val mem : ?base:reg -> ?index:reg * scale -> ?disp:int -> unit -> mem_operand
val mem_sym : ?base:reg -> ?index:reg * scale -> string -> int -> mem_operand

type operand = Imm of imm | Reg of reg | Mem of mem_operand

type cond = Eq | Ne | Lt | Le | Gt | Ge

type binop = Add | Sub | Imul | And | Or | Xor | Shl | Shr | Sar

(** Branch/call targets; [TSym] pre-link, [TAbs] post-link. *)
type target = TAbs of int | TSym of string * int

type t =
  | Mov of operand * operand  (** 64-bit move; at most one memory operand *)
  | Mov8 of operand * operand  (** byte move (zero-extending on loads) *)
  | Lea of reg * mem_operand
  | Push of operand
  | Pop of reg
  | Binop of binop * reg * operand
  | Div of reg * operand  (** signed quotient into [reg] *)
  | Rem of reg * operand  (** signed remainder into [reg] *)
  | Neg of reg
  | Cmp of operand * operand
  | Setcc of cond * reg  (** reg := compare-flag result as 0/1 *)
  | Jmp of target
  | Jmp_ind of operand
  | Jcc of cond * target
  | Call of target
  | Call_ind of operand
  | Ret
  | Nop of int  (** encoded width in bytes, 1..15 *)
  | Trap  (** int3 — booby trap body *)
  | Vload of int * mem_operand  (** ymm[i] := 32 bytes (vmovdqu) *)
  | Vstore of mem_operand * int  (** 32 bytes := ymm[i] *)
  | Vload128 of int * mem_operand  (** xmm[i] := 16 bytes (SSE movdqu) *)
  | Vstore128 of mem_operand * int
  | Vload512 of int * mem_operand  (** zmm[i] := 64 bytes (AVX-512) *)
  | Vstore512 of mem_operand * int
  | Vzeroupper
  | Halt  (** terminate the process; exit code in RAX *)

(** [size i] — encoded length in bytes (x86-64-flavoured variable length).
    Layout, gadget offsets and icache pressure all derive from this. *)
val size : t -> int

val to_string : t -> string

(** [add_binary b i] — appends an injective binary encoding of [i] to
    [b]: equal encodings mean equal instructions. What image fingerprints
    hash. *)
val add_binary : Buffer.t -> t -> unit

(** [is_resolved i] — no remaining symbolic immediates or targets. *)
val is_resolved : t -> bool

(** [map_syms f i] rewrites every symbolic immediate/target with [f sym
    off], producing absolute values — the linker's relocation step. *)
val map_syms : (string -> int -> int) -> t -> t
