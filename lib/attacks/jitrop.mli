(** JIT-ROP (Section 2.1, [62]): disclose the code layout at runtime.

    Harvests code-range values from a stack leak, reads and disassembles
    text around them through the (permission-checked) read primitive,
    discovers a [pop rdi; ret] gadget and the PLT, and fires the same chain
    as {!Rop}. Defeats pure code-layout randomization — and is stopped
    cold by execute-only memory, whose very first text read faults
    (Section 2.1's leakage-resilience upgrade). *)

val run : reference:Reference.t -> target:Oracle.t -> Report.t
