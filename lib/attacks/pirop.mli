(** Position-Independent ROP (Section 7.2.5, [31]).

    Corrupts only the low 16 bits of the return address, so full address
    knowledge (and therefore ASLR) is unnecessary: the high bits — slide
    included — stay intact. The target is [handler_exec]'s slide-invariant
    low bits from the reference image; the four slide bits inside the low
    16 are brute-forced across worker restarts.

    R2C impedes this two ways (Section 7.2.5): the return address slot is
    unknown among the BTRAs, so the partial write usually mangles a decoy
    with no control effect; and shuffling randomizes the low bits
    themselves, so even a hit retargets to a random place — frequently a
    booby trap. The campaign stops at the first detection
    ({!Oracle.detected}): the monitor's response. *)

val run : reference:Reference.t -> target:Oracle.t -> Report.t
