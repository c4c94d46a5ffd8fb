(** Address-Oblivious Code Reuse (Section 2.3, [59]).

    The three demonstrated steps, oblivious to the code layout:

    + {b Profile} (A): leak two pages of stack and run the statistical
      value-range analysis — pointer values cluster by region; the heap
      cluster is picked without needing any specific pointer's identity.
    + {b Leak heap} (B): dereference a pointer from the heap cluster to
      reach a session object whose field points into the data section;
      that pointer plus reference-known deltas locate the globals. Under
      R2C, the picked "heap pointer" is a BTDP with probability
      B/(H+B) — dereferencing it trips a guard page (Section 4.2).
    + {b Corrupt} (C): overwrite the default-parameter global with the
      marker and redirect a service-table slot to the harvested
      [handler_exec] pointer — whole-function reuse with a corrupted
      default argument, no gadgets involved. Under global shuffling the
      deltas are stale and both writes miss.

    The attacker tries at most twelve heap-cluster picks, restarting the
    worker after each faulting dereference, and aborts at the first
    booby-trap or guard-page detection ({!Oracle.detected}) — the
    reactive defense. *)

val run : rng:R2c_util.Rng.t -> reference:Reference.t -> target:Oracle.t -> Report.t
