(** The return-address-zeroing side channel of Section 7.3.

    "An attacker could use the corruption of potential return addresses as
    a side channel. For example, by overwriting selected return address
    candidates with zero and observing whether the process crashes, the
    attacker could learn the location of the real return address."

    Implementation: at the serving breakpoint, every text-range word in the
    live frame window is a candidate. Each probe zeroes one candidate and
    lets the worker run: a crash identifies the real return address (the
    disclosure this attack is scored on); a clean exit means the word was a
    BTRA. The worker respawns with the same layout between probes.

    R2C's Section 7.3 counter-measure — post-return consistency checks on a
    random BTRA subset ([Dconfig.full_checked]) — turns the harmless-looking
    BTRA probes into booby-trap detections: a zeroed BTRA that happens to be
    its call site's checked one traps on the way out. *)

(** Success = the true return-address slot was disclosed.
    At most 40 probes; the campaign stops at the first detection
    ({!Oracle.detected}). *)
val run : target:Oracle.t -> Report.t
