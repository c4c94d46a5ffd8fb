(** The call-site race-window attack of Section 5.1.

    A naive decoy scheme (kR^X-style, modelled by [Dconfig.Naive]) pushes
    only decoys and lets the call instruction write the real return
    address: an attacker who observes the stack immediately before and
    after the call sees exactly one word change — the return address,
    unmasked. Microsoft's Return Flow Guard fell to exactly this
    observation; R2C's Figure 3 setup pre-writes the return-address value
    so the call's implicit store changes nothing.

    The attack freezes the victim at the dispatch call instruction,
    snapshots the stack, single-steps across the call, snapshots again and
    diffs. Success = exactly the return-address slot identified. *)

val run : target:Oracle.t -> Report.t
