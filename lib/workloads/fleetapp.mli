(** The fleet-scale serving workload.

    A deliberately lean request server for campaigns that push hundreds of
    thousands of requests through {!R2c_runtime.Fleet}: the same
    park-at-[read_input] serving protocol as {!Vulnapp} (so the pool's
    break-symbol machinery applies unchanged) but with a minimal handler —
    bounded read, a small compute kernel, a served-request counter, and a
    heartbeat response line every 16th request. No planted vulnerability:
    fleet campaigns get their failures from the chaos injector, not from
    attack payloads, and the per-request instruction count is what sets
    the campaign's wall-clock. *)

val program : unit -> Ir.program

(** Return-address symbol of the [read_input] call — the per-request
    serving point workers park at. *)
val break_symbol : string

(** [build ?seed cfg] — compile the server under a diversity
    configuration. *)
val build : ?seed:int -> R2c_core.Dconfig.t -> R2c_machine.Image.t

(** [incremental_builder ?body_seed ?jobs cfg] — a fleet/pool build
    function backed by one shared incremental-rerandomization handle
    ({!R2c_core.Pipeline.rerand}): the body diversification is pinned at
    [body_seed] and the rotating [~seed] moves only the layout/ASLR
    coordinates, so every epoch rotation after the first is a cache-hit
    relink. Thread-safe (epoch builds are serialized); the produced image
    is a pure function of the coordinates, so fleet reports remain
    Domain-pool-width independent. *)
val incremental_builder :
  ?body_seed:int ->
  ?jobs:int ->
  R2c_core.Dconfig.t ->
  seed:int ->
  R2c_machine.Image.t
