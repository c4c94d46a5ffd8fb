(** Restart policies — the supervisor's answer to a crashed worker, as
    first-class values.

    R2C's booby traps "give defenders a way to respond to an ongoing
    attack" (Section 4.2); a policy is that response:

    - {!Same_image} — respawn with the same layout: the nginx/Apache
      worker-respawn model Blind ROP exploits (Section 4.1).
    - {!Rerandomize} — fresh seed, fresh compile, fresh layout on every
      respawn: the load-time re-randomization extension of Section 7.3.
    - {!Backoff} — exponential respawn delay with jitter plus a crash-loop
      circuit breaker that quarantines a worker crashing too often within
      a window; trades availability for attack-rate limiting.
    - {!Reactive} — cheap [Same_image] respawns until monitoring sees a
      {e detection} ({!R2c_machine.Fault.is_detection}), then escalate:
      fleet-wide re-randomization or MVEE lockstep — the reactive half of
      R2C. *)

type backoff = {
  base : int;  (** first delay, cycles *)
  factor : int;  (** exponential growth factor *)
  cap : int;  (** delay ceiling, cycles *)
  jitter : float;  (** extra random delay as a fraction of the raw delay *)
  window : int;  (** circuit-breaker crash window, cycles *)
  max_crashes : int;  (** crashes within [window] that trip the breaker *)
  quarantine : int;  (** quarantine duration once tripped, cycles *)
}

val default_backoff : backoff

type escalation =
  | Escalate_rerandomize  (** rolling fleet re-randomization *)
  | Escalate_mvee of { variants : int }
      (** serve subsequent requests in N-variant lockstep (Section 7.3) *)

type t =
  | Same_image
  | Rerandomize
  | Backoff of backoff
  | Reactive of escalation

val to_string : t -> string

(** Per-worker backoff bookkeeping: delay escalation and the circuit
    breaker. Deterministic per seed. *)
module Backoff_state : sig
  type s

  val create : ?cfg:backoff -> seed:int -> unit -> s

  (** [next_delay s] — the next respawn delay. Successive delays are
      monotonically non-decreasing and never exceed [cap], jitter
      included. *)
  val next_delay : s -> int

  (** [record_crash s ~now] — feed the circuit breaker; [true] when this
      crash trips it (the worker enters quarantine until
      [now + quarantine]). *)
  val record_crash : s -> now:int -> bool

  (** [quarantined_until s] — the worker is quarantined while the clock is
      below it. *)
  val quarantined_until : s -> int
end
