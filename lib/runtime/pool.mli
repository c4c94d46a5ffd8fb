(** Reactive worker-pool supervisor.

    A pool of diversified worker processes serves a shared request queue —
    the pre-fork server model (nginx, Apache) in which every worker is a
    fork of one parent and therefore shares one randomized layout, the
    uniformity Blind ROP feeds on (Section 4.1). The supervisor owns the
    recovery story: per-request timeouts, bounded retry on another worker,
    load shedding when the fleet is down, and a restart {!Policy.t} that
    decides what a crashed worker comes back as — the same image, a fresh
    layout, a backed-off respawn, or (reactively, once booby-trap
    detections cross a threshold) a fleet-wide re-randomization or MVEE
    lockstep.

    Time is simulated-cycle time: serving burns the worker's measured
    cycles, respawns burn configured penalty cycles, and arrivals advance a
    global clock — enough to measure availability, MTTR and
    detection-to-response latency deterministically.

    Fresh workers start like forks taken after initialisation. The first
    quiet warmup of an image — its run from load to the serving point in
    which the injector fired nothing — is kept as that image's snapshot
    ({!R2c_machine.Process.warm_until}), at most one per live image,
    dropped when no worker runs the image any more. Every later warmup of
    the image (recycles, crash and timeout respawns) restores it, with its
    memory shared copy-on-write, unless the worker's own injector might
    fire within it: a restore needs each of the worker's next [n] injector
    draws at or above the largest rate, [n] being the draws the captured
    warmup made. Then the RNG skips those draws; otherwise it is untouched
    and the warmup runs. Either way the worker's state, its RNG and the
    cycles charged are exactly those of running the warmup, so no report
    changes. When observed, a restored worker's ring holds what the
    capturing worker's ring held at the break.

    A child's lifetime budget is 20M instructions, a graceful recycle
    costs 10k cycles of downtime, and a Reactive pool escalates at its
    second detection. *)

type config = {
  workers : int;  (** pool size *)
  policy : Policy.t;
  seed : int;  (** master seed: parent image, respawn seeds, injectors *)
  request_fuel : int;  (** per-request instruction cap (timeout) *)
  max_retries : int;  (** failed-request retries on other workers *)
  requests_per_child : int;  (** recycle after N requests; 0 = never *)
  restart_cycles : int;  (** crash-respawn downtime *)
  rerandomize_cycles : int;  (** recompile + respawn downtime *)
  arrival_cycles : int;  (** inter-arrival gap charged per submit *)
  inject : R2c_machine.Inject.rates;  (** chaos fault-injection rates *)
}

val default_config : config

type stats = {
  mutable served : int;
  mutable dropped : int;  (** all unserved: failed out of retries + shed *)
  mutable shed : int;  (** dropped without any attempt (no capacity) *)
  mutable retried : int;
  mutable crashes : int;
  mutable timeouts : int;
  mutable detections : int;  (** crashes with {!R2c_machine.Fault.is_detection} *)
  mutable restarts : int;
  mutable recycles : int;
  mutable rerandomizations : int;
  mutable quarantines : int;  (** circuit-breaker trips *)
  mutable mvee_blocks : int;  (** requests refused by lockstep divergence *)
  mutable recovery_cycles : int;  (** total downtime charged *)
  mutable recoveries : int;
  mutable restores : int;  (** warmups that adopted their image's snapshot *)
  mutable fallbacks : int;
      (** warmups that ran although their image had a snapshot: the
          injector check failed *)
  mutable first_detection : int option;  (** clock of first detection *)
  mutable first_response : int option;  (** clock of reactive escalation *)
}

(** All counters zero. *)
val fresh_stats : unit -> stats

type response =
  | Served of { cycles : int; lines : int }
      (** [lines]: response lines the client saw — the feedback channel
          Blind ROP's stop-gadget test reads *)
  | Rejected of { reason : string; lines : int }
      (** attempted but failed out of retries, or MVEE-blocked; [lines] is
          output seen before the connection died *)
  | Dropped  (** shed: no live worker would take it *)

type t

(** [create ?cfg ?obs ~build ~break_sym ()] — [build ~seed] compiles one
    worker image; [break_sym] names the per-request serving point every
    worker parks at between requests (the request-accept loop). All workers
    start from a single [build ~seed:cfg.seed] image — the fork model.

    With [?obs], the pool streams its lifecycle into the sink: request /
    attempt / respawn spans and crash / detection / escalation /
    post-mortem instants on the event timeline (dispatcher is thread 0,
    worker [w] is thread [w+1], timestamps are pool-clock cycles), plus
    [pool_*] counters and a clock gauge that read {!stats} and {!clock},
    and a request-cycles histogram, in the metrics registry. Each worker also gets a small trace ring for crash
    post-mortems. Without [?obs] none of this exists — the serving path is
    the bare interpreter. *)
val create :
  ?cfg:config ->
  ?obs:R2c_obs.Sink.t ->
  build:(seed:int -> R2c_machine.Image.t) ->
  break_sym:string ->
  unit ->
  t

(** [submit ?retries t payload] — advance the clock one arrival and serve
    [payload] on the next available worker, retrying on others on failure
    ([?retries] overrides [cfg.max_retries]; attack probes pass
    [~retries:0]). Once a Reactive pool has escalated to MVEE, every
    request is served in lockstep instead.

    When observed, every [submit] records exactly one request span —
    served, rejected or dropped — so a trace's request-span count equals
    [stats.served + stats.dropped]. *)
val submit : ?retries:int -> t -> string -> response

(** [run t payloads] — {!submit} each payload in order and collect the
    responses. *)
val run : t -> string list -> response list

(** [shutdown t] — graceful drain: stop admitting (every later {!submit}
    is refused and counted as shed), close out each worker with a
    [retire] span covering its residual downtime, and mark the timeline
    with a [shutdown] instant. In-flight work needs no waiting — serving is
    synchronous, so nothing is mid-request between [submit]s.
    Idempotent. The fleet's epoch rotation retires old-epoch pools
    through this instead of abandoning them. *)
val shutdown : t -> unit

(** [is_shutdown t] — {!shutdown} has run. *)
val is_shutdown : t -> bool

(** [advance_clock t now] — fast-forward the pool clock to [now] (no-op
    if the clock is already past it). For composing pools under an
    external clock: a fleet dispatching to shards advances each shard to
    the fleet-wide arrival time so respawn downtimes elapse in fleet
    time, not per-shard request counts. *)
val advance_clock : t -> int -> unit

val stats : t -> stats
val clock : t -> int

(** [inject_counters t] — each worker's chaos-injector counters, worker
    order; empty when [cfg.inject] is all zero. *)
val inject_counters : t -> R2c_machine.Inject.counters list

(** [escalated t] — a Reactive pool has fired its escalation. *)
val escalated : t -> bool

(** [sensitive_log t] — privileged-call log across all workers, dead and
    alive: (builtin address, first-arg) pairs. Compromise evidence. *)
val sensitive_log : t -> (int * int) list

(** [availability s] — served / (served + dropped); 1.0 with no traffic. *)
val availability : stats -> float

(** [mttr s] — mean downtime per recovery, in cycles. *)
val mttr : stats -> float option

(** [detection_to_response s] — cycles from first detection to the
    reactive escalation, when both happened. *)
val detection_to_response : stats -> int option
