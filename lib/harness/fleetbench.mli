(** Fleet-scale chaos campaign (E-FLEET).

    Drives {!R2c_runtime.Fleet} over the lean {!Fleetapp} workload: a
    deterministic stream of ≥100k simulated requests while the PR-1 chaos
    injector flips bits, corrupts loads and raises spurious faults inside
    the shard workers, and the fleet live-rotates through fresh diversity
    epochs on its cycle timer. The campaign is the robustness argument for
    the serving tier: under sustained low-grade chaos plus continuous
    rerandomization, availability holds ≥ 99.9% and rotation itself drops
    nothing.

    The {!report} is bit-identical at any Domain-pool width ([?jobs] /
    [R2C_JOBS]): parallelism only accelerates background epoch compiles,
    never reorders a randomized decision. Wall-clock and job-count are
    therefore kept out of the report. *)

type report = {
  seed : int;
  requests : int;  (** requested campaign length *)
  shards : int;
  epoch_cycles : int;
  incremental : bool;
      (** epoch builds went through the shared per-function codegen cache
          ({!R2c_workloads.Fleetapp.incremental_builder}): rotations move
          only the layout coordinates and relink from cache hits *)
  fleet : R2c_runtime.Fleet.stats;
  pool : R2c_runtime.Pool.stats;
      (** shard-pool totals across every epoch, retired pools included *)
  clock : int;  (** final fleet clock (cycles) *)
  epochs : int;  (** completed rotations *)
  p50 : int;  (** request-latency median, cycles *)
  p99 : int;  (** request-latency tail, cycles *)
  shard_p50 : int list;  (** per-shard latency medians, shard order *)
  shard_p99 : int list;  (** per-shard latency tails, shard order *)
  availability : float;
}

val run :
  ?seed:int ->
  ?requests:int ->
  ?shards:int ->
  ?epoch_cycles:int ->
  ?jobs:int ->
  ?incremental:bool ->
  unit ->
  report

(** [gate r] — the E-FLEET SLO checks; returns the violated criteria as
    [(check, detail)] pairs (empty = pass): campaign length, shard count,
    completed rotations, zero rotation-caused drops, availability floor. With
    [?max_p99] (cycles) the latency SLO also binds: the fleet-wide p99
    and every per-shard p99 must stay at or under the ceiling. *)
val gate :
  ?min_requests:int ->
  ?min_shards:int ->
  ?min_rotations:int ->
  ?min_availability:float ->
  ?max_p99:int ->
  report ->
  (string * string) list

(** [results r] — the campaign summary, every field deterministic. *)
val results : report -> Results.t
