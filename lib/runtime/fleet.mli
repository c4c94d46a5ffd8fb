(** Sharded serving fleet with admission control and epoch-based live
    rerandomization.

    N {!Pool}s (shards) behind a load balancer. Per arrival the balancer
    runs power-of-two-choices over the healthy shards (two uniform picks,
    dispatch to the shallower queue), enforces a bounded per-shard queue
    depth (admission past the bound is shed — a fast 503 beats a
    connection queue that melts the fleet), and hedges a rejected request
    onto at most 3 other shards. Shard health is tracked from the
    dispatcher's own view: a shard with 8 failures among its last 32
    outcomes, or whose booby-trap detections reach
    [quarantine_detections], is quarantined — excluded from dispatch while
    its workers' layouts churn back to health — and its traffic
    redistributes to the remaining shards. Quarantine is advisory under
    pressure: when fewer than 2 shards are healthy, the balancer panics
    and routes across every live shard — a struggling shard beats
    refusing the connection (cf. Envoy's panic routing).

    Time is simulated-cycle time, one global fleet clock: each arrival
    advances the clock; shards serve "concurrently" in the queueing-model
    sense (per-shard completion times, not serialized service). Shard
    pools run with [arrival_cycles = 0] and are fast-forwarded to the
    fleet clock at dispatch ({!Pool.advance_clock}), so respawn downtimes
    elapse in fleet time.

    {b Epoch rotation.} On a cycle timer ([epoch_cycles]) or a reactive
    detection trigger ([rotate_detections]), the fleet compiles one
    freshly-seeded image per shard in the background — fanned out over
    {!R2c_util.Parallel}, charged zero fleet-clock cycles because serving
    does not wait on it — warms each new pool with a canary request
    (rebuilding under a new seed on canary failure, at most 3 times),
    then drains traffic epoch-by-epoch: one shard per
    subsequent arrival atomically swaps to its warmed pool and the old
    pool retires through {!Pool.shutdown}. A swap happens between
    arrivals and the old pool serves until the instant its replacement
    takes over, so the rotation itself never removes a shard from the
    candidate set: rotation-caused drops are structurally zero, and
    [stats.rotation_drops] measures that the implementation keeps the
    promise (it counts any request that sheds or terminally fails after
    touching a shut-down pool — the signature of a rotation bug). *)

type config = {
  shards : int;  (** shard count *)
  seed : int;  (** master seed: shard seeds, p2c picks, rotation seeds *)
  queue_bound : int;  (** max outstanding requests per shard; admission
                          past this sheds *)
  arrival_cycles : int;  (** fleet-clock advance per arrival *)
  epoch_cycles : int;  (** rotate every N cycles; 0 = timer off *)
  rotate_detections : int;  (** reactive rotation after N fleet-wide
                                detections since the last rotation;
                                0 = trigger off *)
  canary : string;  (** warmup payload served by each new-epoch pool *)
  quarantine_detections : int;  (** quarantine at N shard detections *)
  quarantine_cycles : int;  (** quarantine duration *)
  jobs : int;  (** Domain-pool width for background compiles; 0 = auto.
                   The fleet's observable behaviour is identical at any
                   width. *)
  shard : Pool.config;  (** per-shard pool template; [seed] and
                            [arrival_cycles] are overridden per shard *)
}

val default_config : config

type stats = {
  mutable submitted : int;
  mutable served : int;
  mutable dropped : int;  (** all unserved = shed + rejected *)
  mutable shed : int;  (** refused at admission (bound, no healthy shard) *)
  mutable rejected : int;  (** attempted but failed out of hedges *)
  mutable hedges : int;  (** cross-shard retry dispatches *)
  mutable quarantines : int;
  mutable rotations : int;  (** completed epoch rotations *)
  mutable rotation_drops : int;  (** drops attributable to rotation itself
                                     (a request touched a shut pool);
                                     structurally zero — the SLO gate *)
  mutable drops_during_rotation : int;  (** coincidental drops while a
                                            rotation was draining *)
  mutable canary_failures : int;  (** new-epoch pools that failed warmup *)
  mutable max_queue_depth : int;  (** deepest per-shard queue ever
                                      admitted to (≤ [queue_bound]) *)
}

type t

(** [create ?cfg ?obs ~build ~break_sym ()] — compile the epoch-0 shard
    pools (fanned out over the Domain pool) and register [fleet_*]
    metrics — aggregate counters and an epoch/clock gauge pair that read
    {!stats}, {!epoch} and {!clock}, a request-latency histogram, and
    per-shard [fleet_shardN_{served,failed,quarantines,queue_depth}]
    series (the queue depth as of the shard's last served request) — into
    [?obs] (an internal sink when omitted, so {!percentile} always
    works). *)
val create :
  ?cfg:config ->
  ?obs:R2c_obs.Sink.t ->
  build:(seed:int -> R2c_machine.Image.t) ->
  break_sym:string ->
  unit ->
  t

(** [submit t payload] — one arrival: advance the clock, advance the
    rotation state machine one step, then admit/dispatch/hedge as
    described above. *)
val submit : t -> string -> Pool.response

val stats : t -> stats
val clock : t -> int

(** [epoch t] — completed rotations (the fleet serves epoch [epoch t]
    images). *)
val epoch : t -> int

(** [pool_totals t] — shard-pool stats aggregated across every pool the
    fleet ever ran: live shards plus pools retired by rotation (and
    new-epoch builds that failed their canary). *)
val pool_totals : t -> Pool.stats

(** [availability s] — served / submitted; 1.0 with no traffic. *)
val availability : stats -> float

(** [percentile t p] — nearest-rank percentile of the request-latency
    histogram (queue wait + service, in cycles). *)
val percentile : t -> float -> int

(** [shard_percentile t i p] — the same nearest-rank percentile over only
    the requests shard [i] served (its [fleet_shard<i>_request_cycles]
    histogram): the per-shard latency breakdown behind the fleet-wide
    p50/p99, and the basis of per-shard SLO checks. *)
val shard_percentile : t -> int -> float -> int

(** [sink t] — the observability sink the fleet publishes into. *)
val sink : t -> R2c_obs.Sink.t
