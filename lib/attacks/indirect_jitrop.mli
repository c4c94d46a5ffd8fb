(** Indirect JIT-ROP (Section 2.1, [25, 26]): infer gadget locations from
    leaked code pointers without reading code.

    Reads the frame's return address from the leaked stack (at the
    reference-known slot), computes the module slide as the difference to
    the reference value, and rebases the reference gadget and PLT
    addresses. Correct against sliding-only diversification (ASLR);
    against function shuffling the rebased addresses are stale, and
    against R2C the "return address" read is likely a BTRA in the first
    place — executing the chain then lands in a booby trap. *)

val run : reference:Reference.t -> target:Oracle.t -> Report.t
