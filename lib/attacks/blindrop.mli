(** Blind ROP (Section 4.1, [11]): brute force against a worker-respawning
    server, no reference binary, no information leak.

    Phase 1 probes growing overflow lengths until the crash onset reveals
    the return-address distance. Phase 2 sweeps candidate text addresses
    as the chain's first gadget, probing [cand; marker; sensitive@plt]
    (the PLT is assumed fixed — the non-PIE BROP precondition). Every
    probe costs a crash and a respawn; in R2C's text the sweep keeps
    landing in booby-trap functions, and the monitoring threshold ends the
    campaign — the reactive deterrence of Section 4.1. *)

val run :
  ?probe_budget:int ->
  ?monitor_threshold:int ->
  target:Oracle.t ->
  unit ->
  Report.t
