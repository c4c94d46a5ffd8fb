(** Classic return-oriented programming (Section 2.1).

    Monoculture attack: gadget addresses and the buffer-to-return-address
    distance come from the attacker's reference copy. The stack smash is
    performed through the server's real overflow; benign filler is rebuilt
    from a prior stack leak so only the return address changes. The chain
    is [pop rdi; marker; sensitive@plt] — ret2libc through the PLT.

    Defeated by any defense that moves the gadget (code randomization) or
    the return address (BTRAs); a wrong guess that lands in a booby trap is
    a detection. *)

(** [run ~reference ~target] *)
val run : reference:Reference.t -> target:Oracle.t -> Report.t

(** [craft ~reference ~values] — the exploit request bytes, given a leaked
    stack window (benign filler + chain). [None] when the reference binary
    lacks the gadget. Exposed for the MVEE divergence experiment. *)
val craft : reference:Reference.t -> values:int array -> string option
