(** Blind ROP (Section 4.1, [11]): brute force against a worker-respawning
    server with no reference binary and no leak. The attacker sees only a
    {!Victim.t}'s verdicts, so one campaign runs against a lone process
    ({!Oracle.victim}) and a worker pool alike.

    Stack reading extends the overflow a byte at a time, keeping bytes the
    server survives and revalidating the learned filler before each step.
    At each word boundary a stop-gadget test (a ret into print_int@plt
    prints one more line than garbage does) locates the return address.
    A ret2plt sweep then brute-forces the first gadget of
    [cand; marker; sensitive@plt] over the text after the PLT (fixed: the
    non-PIE precondition). The campaign gives up when learned bytes stop
    holding or sweep chains stop crashing (layout churn), and after 20
    refusals in a row, whatever refused them: a fleet that is down, or a
    monitor that took the service away after a booby trap fired —
    Section 4.1's reactive deterrence. *)

type outcome = {
  probes : int;  (** refused ones included *)
  ra_offset : int option;  (** filler length at the located return address *)
  note : string;  (** how the campaign ended *)
  compromised : bool;
}

(** [campaign ~probe_budget v] — at most [probe_budget] probes: the
    campaign gives up before the first probe past it, even in the middle
    of a revalidation or a stop-gadget test. *)
val campaign : probe_budget:int -> Victim.t -> outcome

(** [run ?probe_budget ~target ()] — {!campaign} (default budget 20,000)
    against [Oracle.victim target], as a report. *)
val run : ?probe_budget:int -> target:Oracle.t -> unit -> Report.t
