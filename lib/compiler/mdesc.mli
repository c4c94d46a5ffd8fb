(** Machine description: the register file, calling convention and encoder
    hooks the back end is parameterized over.

    Every machine-specific constant the emitter, register allocator and
    linker consult lives in this record (in the style of pi-nothing's
    [machine.rkt]); [x86_64] reproduces the historical hard-wired System
    V-flavoured convention byte for byte. A description also names itself:
    {!fingerprint} is part of the incremental-compilation cache key, so
    two profiles producing different code must carry distinct fields (or
    at least distinct [mname]s when they differ only in [insn_size]). *)

type t = {
  mname : string;  (** profile name, part of {!fingerprint} *)
  arg_regs : R2c_machine.Insn.reg list;
      (** argument registers, in passing order; further arguments go on
          the stack *)
  ret_reg : R2c_machine.Insn.reg;
      (** result register, also the primary scratch *)
  scratch_reg : R2c_machine.Insn.reg;  (** secondary scratch *)
  indirect_reg : R2c_machine.Insn.reg;  (** indirect-call target *)
  check_reg : R2c_machine.Insn.reg;
      (** scratch for BTDP prologue copies and post-return checks (must
          not alias [ret_reg]: it is live across the check) *)
  vector_reg : int;  (** vector register index for BTRA batch stores *)
  frame_reg : R2c_machine.Insn.reg;
      (** reserved for offset-invariant addressing *)
  stack_reg : R2c_machine.Insn.reg;
  callee_saved : R2c_machine.Insn.reg list;
      (** the register-allocation pool, in default allocation order *)
  word_bytes : int;
  frame_align : int;  (** stack alignment at call sites, a power of two *)
  plt_entry_bytes : int;  (** stride of builtin (PLT-like) entries *)
  insn_size : R2c_machine.Insn.t -> int;
      (** encoder hook: layout-assigned byte length of one instruction *)
}

(** The System V-flavoured default: arguments in rdi, rsi, rdx, rcx, r8,
    r9; result in rax; rbx, r12-r15 callee-saved; rax, rcx, r10, r11
    scratch; rbp reserved for offset-invariant addressing. *)
val x86_64 : t

(** Number of register-passed arguments. *)
val nregs : t -> int

(** Digest of the declarative fields plus [mname]; the machine component
    of the incremental cache key. *)
val fingerprint : t -> string
