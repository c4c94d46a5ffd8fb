(** Deterministic fault injection (the chaos half of the supervision
    layer).

    An injector is attached to a process at load time and threads through
    the machine as a set of hooks: per-instruction it may flip a bit in
    writable memory (heap, stack, data — the soft-error / rowhammer model)
    or synthesize a spurious crash; per 64-bit data load it may corrupt the
    value read; per run segment it may cut the fuel budget so the request
    times out mid-flight.

    All decisions draw from a private {!R2c_util.Rng} stream, so a chaos
    campaign is reproducible from its seed. A rate of exactly 0 consumes no
    randomness and perturbs nothing: attaching a zero-rate injector is
    observationally identical to attaching none, which the availability
    harness relies on for its baseline runs. *)

type rates = {
  bitflip : float;  (** per-instruction probability of a memory bit flip *)
  load_corrupt : float;  (** per-load probability of corrupting the value *)
  spurious_fault : float;  (** per-instruction probability of a fake crash *)
  fuel_cut : float;  (** per-run-segment probability of a fuel exhaustion *)
}

(** All rates 0: injection disabled. *)
val zero : rates

val rates_active : rates -> bool

type counters = {
  bitflips : int;
  load_corruptions : int;
  spurious_faults : int;
  fuel_cuts : int;
}

type t

(** [create ?rates ~seed ()] — default rates {!zero}. *)
val create : ?rates:rates -> seed:int -> unit -> t

val rates : t -> rates

(** [counters t] — how many of each injection actually fired so far. *)
val counters : t -> counters

(** [draws t] — how many uniform draws the hooks have made so far: one
    per hook call at a non-zero rate. A hook that fires draws more (the
    bit, the address), uncounted; a run that fired nothing made exactly
    [draws] draws. *)
val draws : t -> int

(** [skip_quiet t ~draws] — when the next [draws] draws of [t] would
    each fire nothing whatever hook made it (each is at or above the
    largest rate), advance [t] past them, count them, and return [true];
    otherwise leave [t] untouched and return [false]. With [true], [t] is
    in exactly the state re-running a quiet segment that made [draws]
    draws would leave it in ({!Process.warm_until} restores on it). *)
val skip_quiet : t -> draws:int -> bool

(** Hooks, called by the machine. *)

(** [on_step t ~mem ~rip] — before instruction dispatch: may flip a random
    bit in a random writable mapped page, and may raise
    {!Fault.constructor-Injected}. *)
val on_step : t -> mem:Mem.t -> rip:int -> unit

(** [on_load t v] — the (possibly corrupted) value of a 64-bit data load. *)
val on_load : t -> int -> int

(** [cut_fuel t budget] — the (possibly truncated) fuel budget for a run
    segment. *)
val cut_fuel : t -> int -> int
