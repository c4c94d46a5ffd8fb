module Rng = R2c_util.Rng
module Parallel = R2c_util.Parallel
module Obs = R2c_obs

type config = {
  shards : int;
  seed : int;
  queue_bound : int;
  arrival_cycles : int;
  epoch_cycles : int;
  rotate_detections : int;
  canary : string;
  quarantine_detections : int;
  quarantine_cycles : int;
  jobs : int;
  shard : Pool.config;
}

let default_config =
  {
    shards = 4;
    seed = 1;
    queue_bound = 32;
    arrival_cycles = 800;
    epoch_cycles = 18_000_000;
    rotate_detections = 0;
    canary = "GET /healthz";
    quarantine_detections = 3;
    quarantine_cycles = 200_000;
    jobs = 0;
    shard =
      {
        Pool.default_config with
        Pool.workers = 3;
        policy = Policy.Rerandomize;
        requests_per_child = 48;
        arrival_cycles = 0;
      };
  }

(* Cross-shard retries of a rejected request; rebuilds of a shard whose
   new-epoch canary failed; quarantine at this many failures among a
   shard's last [quarantine_window] outcomes; and the healthy-shard count
   below which the balancer panics. *)
let hedge_retries = 3
let canary_retries = 3
let quarantine_failures = 8
let quarantine_window = 32
let panic_min_healthy = 2

type stats = {
  mutable submitted : int;
  mutable served : int;
  mutable dropped : int;
  mutable shed : int;
  mutable rejected : int;
  mutable hedges : int;
  mutable quarantines : int;
  mutable rotations : int;
  mutable rotation_drops : int;
  mutable drops_during_rotation : int;
  mutable canary_failures : int;
  mutable max_queue_depth : int;
}

let fresh_stats () =
  {
    submitted = 0;
    served = 0;
    dropped = 0;
    shed = 0;
    rejected = 0;
    hedges = 0;
    quarantines = 0;
    rotations = 0;
    rotation_drops = 0;
    drops_during_rotation = 0;
    canary_failures = 0;
    max_queue_depth = 0;
  }

(* Per-shard dispatcher view: the queueing model (outstanding completion
   times), the health window, the live pool, and the shard's own counts. *)
type shard = {
  idx : int;
  mutable pool : Pool.t;
  mutable tail : int;  (* completion time of the last admitted request *)
  completions : int Queue.t;  (* outstanding completion times, ascending *)
  mutable quarantined_until : int;
  window : bool array;  (* recent outcomes ring; [true] = failure *)
  mutable win_pos : int;
  mutable win_len : int;
  mutable win_fails : int;
  mutable det_base : int;  (* pool detections at the last health reset *)
  mutable served : int;
  mutable failed : int;  (* dispatches that failed *)
  mutable quarantines : int;
  mutable served_depth : int;  (* queue depth after its last served request *)
  latency : Obs.Metrics.histogram;
}

type rotation = {
  started : int;
  reason : string;
  mutable pending : (int * Pool.t) list;  (* shard idx, warmed pool *)
}

type t = {
  cfg : config;
  build : seed:int -> R2c_machine.Image.t;
  break_sym : string;
  rng : Rng.t;
  shards : shard array;
  stats : stats;
  sink : Obs.Sink.t;
  request_cycles : Obs.Metrics.histogram;
  retired : Pool.stats;  (* accumulated stats of every retired pool *)
  mutable clock : int;
  mutable epoch : int;
  mutable last_rotation : int;
  mutable det_at_rotation : int;
  mutable rotating : rotation option;
}

let add_pool_stats (acc : Pool.stats) (s : Pool.stats) =
  acc.Pool.served <- acc.Pool.served + s.Pool.served;
  acc.Pool.dropped <- acc.Pool.dropped + s.Pool.dropped;
  acc.Pool.shed <- acc.Pool.shed + s.Pool.shed;
  acc.Pool.retried <- acc.Pool.retried + s.Pool.retried;
  acc.Pool.crashes <- acc.Pool.crashes + s.Pool.crashes;
  acc.Pool.timeouts <- acc.Pool.timeouts + s.Pool.timeouts;
  acc.Pool.detections <- acc.Pool.detections + s.Pool.detections;
  acc.Pool.restarts <- acc.Pool.restarts + s.Pool.restarts;
  acc.Pool.recycles <- acc.Pool.recycles + s.Pool.recycles;
  acc.Pool.rerandomizations <- acc.Pool.rerandomizations + s.Pool.rerandomizations;
  acc.Pool.quarantines <- acc.Pool.quarantines + s.Pool.quarantines;
  acc.Pool.mvee_blocks <- acc.Pool.mvee_blocks + s.Pool.mvee_blocks;
  acc.Pool.recovery_cycles <- acc.Pool.recovery_cycles + s.Pool.recovery_cycles;
  acc.Pool.recoveries <- acc.Pool.recoveries + s.Pool.recoveries;
  acc.Pool.restores <- acc.Pool.restores + s.Pool.restores;
  acc.Pool.fallbacks <- acc.Pool.fallbacks + s.Pool.fallbacks

let pool_totals t =
  let acc = Pool.fresh_stats () in
  add_pool_stats acc t.retired;
  Array.iter (fun sh -> add_pool_stats acc (Pool.stats sh.pool)) t.shards;
  acc

let fresh_seed t = Rng.int t.rng 0x3fff_ffff

(* The registry reads the fleet's stats, epoch and clock, and each
   shard's own counts. Each set is registered after its histogram, in
   the exposition's order. *)
let register_counts t =
  let m = t.sink.Obs.Sink.metrics and s = t.stats in
  let c name help read = Obs.Metrics.counter ~help m name read in
  let g name help read = Obs.Metrics.gauge ~help m name (fun () -> float_of_int (read ())) in
  g "fleet_clock_cycles" "simulated fleet clock (cycles)" (fun () -> t.clock);
  g "fleet_epoch" "current serving epoch" (fun () -> t.epoch);
  c "fleet_canary_failures_total" "new-epoch pools failing warmup" (fun () -> s.canary_failures);
  c "fleet_rotation_drops_total" "drops caused by rotation itself (SLO: 0)" (fun () ->
      s.rotation_drops);
  c "fleet_rotations_total" "completed epoch rotations" (fun () -> s.rotations);
  c "fleet_quarantines_total" "shard quarantines" (fun () -> s.quarantines);
  c "fleet_hedges_total" "cross-shard hedge dispatches" (fun () -> s.hedges);
  c "fleet_shed_total" "requests refused at admission" (fun () -> s.shed);
  c "fleet_dropped_total" "requests shed or rejected" (fun () -> s.dropped);
  c "fleet_served_total" "requests served" (fun () -> s.served);
  c "fleet_requests_total" "requests submitted to the fleet" (fun () -> s.submitted)

let register_shard_counts (sink : Obs.Sink.t) sh =
  let m = sink.Obs.Sink.metrics in
  let n suffix = Printf.sprintf "fleet_shard%d_%s" sh.idx suffix in
  let c suffix help read = Obs.Metrics.counter ~help m (n suffix) read in
  Obs.Metrics.gauge ~help:"outstanding requests" m (n "queue_depth") (fun () ->
      float_of_int sh.served_depth);
  c "quarantines_total" "times quarantined" (fun () -> sh.quarantines);
  c "failed_total" "dispatches this shard failed" (fun () -> sh.failed);
  c "served_total" "requests served by this shard" (fun () -> sh.served)

(* One shard's pool under [seed]. *)
let shard_pool cfg ~build ~break_sym seed =
  Pool.create ~cfg:{ cfg.shard with Pool.seed; arrival_cycles = 0 } ~build ~break_sym ()

(* Build one epoch's worth of pools, fanned out across the Domain pool.
   Seeds are pre-drawn sequentially (the RNG stream is identical at any
   job count) and each task touches only its own pool-to-be. *)
let build_pools cfg ~build ~break_sym seeds =
  let jobs = if cfg.jobs <= 0 then None else Some cfg.jobs in
  Parallel.map ?jobs (shard_pool cfg ~build ~break_sym) seeds

(* A freshly built pool must prove it can serve before any traffic drains
   onto it: one canary request per worker. Round-robin dispatch walks the
   canaries across every worker, so each child pays its cold-start cycles
   (running main up to the first request park — ~35x a steady-state
   request) here, in the background, instead of dumping them into the
   serving queue at swap time. On failure (a chaos fault during warmup,
   or a genuinely bad build) the shard is rebuilt under a new seed, a
   bounded number of times; a shard whose canaries all fail skips this
   rotation — its old pool keeps serving, so the failure costs diversity
   freshness, never availability. *)
let warm_pool ~workers ~canary pool =
  let ok = ref true in
  for _ = 1 to workers do
    match Pool.submit pool canary with Pool.Served _ -> () | _ -> ok := false
  done;
  !ok

let ev t f = f t.sink

let create ?(cfg = default_config) ?obs ~build ~break_sym () =
  if cfg.shards <= 0 then invalid_arg "Fleet.create: need at least one shard";
  if cfg.queue_bound <= 0 then invalid_arg "Fleet.create: queue_bound must be positive";
  let sink = match obs with Some s -> s | None -> Obs.Sink.create () in
  let rng = Rng.create cfg.seed in
  let seeds = List.init cfg.shards (fun _ -> Rng.int rng 0x3fff_ffff) in
  let pools = build_pools cfg ~build ~break_sym seeds in
  (* Epoch-0 warmup: ignore outcomes (under chaos injection a canary can
     crash; the worker respawns and its downtime elapses before traffic
     starts) — what matters is that every worker's cold start is charged
     before the fleet clock begins. *)
  List.iter
    (fun p ->
      ignore (warm_pool ~workers:cfg.shard.Pool.workers ~canary:cfg.canary p))
    pools;
  let clock0 = List.fold_left (fun acc p -> max acc (Pool.clock p)) 0 pools in
  let shards =
    Array.of_list
      (List.mapi
         (fun i p ->
           let sh =
             {
               idx = i;
               pool = p;
               tail = 0;
               completions = Queue.create ();
               quarantined_until = 0;
               window = Array.make quarantine_window false;
               win_pos = 0;
               win_len = 0;
               win_fails = 0;
               det_base = (Pool.stats p).Pool.detections;
               served = 0;
               failed = 0;
               quarantines = 0;
               served_depth = 0;
               latency =
                 Obs.Metrics.histogram ~help:"request latency served by this shard (cycles)"
                   sink.Obs.Sink.metrics
                   (Printf.sprintf "fleet_shard%d_request_cycles" i);
             }
           in
           register_shard_counts sink sh;
           sh)
         pools)
  in
  let request_cycles =
    Obs.Metrics.histogram ~help:"request latency: queue wait + service cycles"
      sink.Obs.Sink.metrics "fleet_request_cycles"
  in
  let t =
    {
      cfg;
      build;
      break_sym;
      rng;
      shards;
      stats = fresh_stats ();
      sink;
      request_cycles;
      retired = Pool.fresh_stats ();
      (* The fleet clock opens where warmup left the slowest shard: the
         service is "up" once every worker has served its canary. *)
      clock = clock0;
      epoch = 0;
      last_rotation = clock0;
      (* Canary crashes during warmup can already be detections; the
         reactive trigger counts only detections since serving began. *)
      det_at_rotation =
        List.fold_left (fun acc p -> acc + (Pool.stats p).Pool.detections) 0 pools;
      rotating = None;
    }
  in
  register_counts t;
  t

(* --- queueing model --- *)

let expire sh ~now =
  while (not (Queue.is_empty sh.completions)) && Queue.peek sh.completions <= now do
    ignore (Queue.pop sh.completions)
  done

let depth sh ~now =
  expire sh ~now;
  Queue.length sh.completions

(* --- shard health --- *)

let reset_window sh =
  sh.win_pos <- 0;
  sh.win_len <- 0;
  sh.win_fails <- 0;
  Array.fill sh.window 0 (Array.length sh.window) false

let record_outcome sh ~failed =
  let w = sh.window in
  let n = Array.length w in
  if sh.win_len = n then begin
    if w.(sh.win_pos) then sh.win_fails <- sh.win_fails - 1
  end
  else sh.win_len <- sh.win_len + 1;
  w.(sh.win_pos) <- failed;
  if failed then sh.win_fails <- sh.win_fails + 1;
  sh.win_pos <- (sh.win_pos + 1) mod n

let quarantine t sh ~why =
  sh.quarantined_until <- t.clock + t.cfg.quarantine_cycles;
  t.stats.quarantines <- t.stats.quarantines + 1;
  sh.quarantines <- sh.quarantines + 1;
  reset_window sh;
  sh.det_base <- (Pool.stats sh.pool).Pool.detections;
  ev t (fun sink ->
      Obs.Events.instant ~cat:"quarantine"
        ~args:
          [
            ("shard", string_of_int sh.idx);
            ("why", why);
            ("until", string_of_int sh.quarantined_until);
          ]
        sink.Obs.Sink.events ~name:"quarantine" ~ts:t.clock)

(* Quarantine triggers, checked after every dispatch to the shard: too
   many failures in the sliding window (availability), or the shard's
   pool has accumulated booby-trap detections past the threshold (it is
   being probed — rest it while its workers rerandomize). *)
let check_health t sh =
  if sh.win_fails >= quarantine_failures then quarantine t sh ~why:"failures"
  else
    let det = (Pool.stats sh.pool).Pool.detections in
    if t.cfg.quarantine_detections > 0 && det - sh.det_base >= t.cfg.quarantine_detections
    then quarantine t sh ~why:"detections"

(* --- epoch rotation --- *)

let swap t idx np =
  let sh = t.shards.(idx) in
  let old = sh.pool in
  Pool.advance_clock np t.clock;
  Pool.shutdown old;
  add_pool_stats t.retired (Pool.stats old);
  sh.pool <- np;
  (* Fresh layout: clear the health record and any quarantine — the
     probes that tripped it were against the retired epoch's layouts.
     The queue carries over: outstanding work finishes draining in the
     background regardless of which epoch admitted it. *)
  reset_window sh;
  sh.det_base <- (Pool.stats np).Pool.detections;
  sh.quarantined_until <- 0;
  ev t (fun sink ->
      Obs.Events.instant ~cat:"rotation"
        ~args:[ ("shard", string_of_int idx); ("epoch", string_of_int (t.epoch + 1)) ]
        sink.Obs.Sink.events ~name:"swap" ~ts:t.clock)

let finish_rotation t r =
  t.rotating <- None;
  t.epoch <- t.epoch + 1;
  t.last_rotation <- t.clock;
  t.stats.rotations <- t.stats.rotations + 1;
  ev t (fun sink ->
      Obs.Events.complete ~cat:"rotation"
        ~args:[ ("epoch", string_of_int t.epoch); ("reason", r.reason) ]
        sink.Obs.Sink.events ~name:"epoch-rotation" ~ts:r.started
        ~dur:(t.clock - r.started))

let start_rotation t ~reason =
  (* Background compile: every shard gets a freshly seeded image, fanned
     out over the Domain pool; the serving path does not wait, so no
     fleet-clock cycles are charged. Then warm each new pool with the
     canary before it is allowed anywhere near traffic. *)
  let seeds = List.init t.cfg.shards (fun _ -> fresh_seed t) in
  let pools = build_pools t.cfg ~build:t.build ~break_sym:t.break_sym seeds in
  let warmed =
    List.mapi
      (fun i p ->
        let rec warm p tries =
          if warm_pool ~workers:t.cfg.shard.Pool.workers ~canary:t.cfg.canary p then
            Some p
          else begin
            t.stats.canary_failures <- t.stats.canary_failures + 1;
            add_pool_stats t.retired (Pool.stats p);
            Pool.shutdown p;
            if tries >= canary_retries then None
            else
              let p' =
                shard_pool t.cfg ~build:t.build ~break_sym:t.break_sym (fresh_seed t)
              in
              warm p' (tries + 1)
          end
        in
        (i, warm p 0))
      pools
  in
  let pending = List.filter_map (fun (i, p) -> Option.map (fun p -> (i, p)) p) warmed in
  ev t (fun sink ->
      Obs.Events.instant ~cat:"rotation"
        ~args:
          [
            ("reason", reason);
            ("epoch", string_of_int (t.epoch + 1));
            ("warmed", string_of_int (List.length pending));
          ]
        sink.Obs.Sink.events ~name:"rotation-start" ~ts:t.clock);
  t.det_at_rotation <-
    (let tot = pool_totals t in
     tot.Pool.detections);
  let r = { started = t.clock; reason; pending } in
  (* Even if every canary failed, the epoch still turns over (nothing to
     drain): diversity freshness is lost this round, availability is not. *)
  if pending = [] then finish_rotation t r else t.rotating <- Some r

(* One rotation step per arrival: either trigger a new rotation or swap
   the next pending shard. Swaps are atomic between arrivals — the old
   pool serves up to the instant its replacement takes over — which is
   what makes rotation-caused drops structurally zero. *)
let rotation_tick t =
  match t.rotating with
  | Some r -> (
      match r.pending with
      | [] -> finish_rotation t r
      | (idx, np) :: rest ->
          swap t idx np;
          r.pending <- rest;
          if rest = [] then finish_rotation t r)
  | None ->
      let timer =
        t.cfg.epoch_cycles > 0 && t.clock - t.last_rotation >= t.cfg.epoch_cycles
      in
      let reactive =
        t.cfg.rotate_detections > 0
        &&
        let tot = pool_totals t in
        tot.Pool.detections - t.det_at_rotation >= t.cfg.rotate_detections
      in
      if timer || reactive then
        start_rotation t ~reason:(if reactive then "reactive" else "timer")

(* --- dispatch --- *)

(* Dispatchable shards. Quarantine is advisory under pressure: when fewer
   than [panic_min_healthy] shards are healthy, the balancer panics and
   routes across every live shard, quarantined or not — a quarantined
   shard that still has a worker up beats refusing the connection
   outright (the same reasoning as Envoy's panic threshold). *)
let candidates t =
  let now = t.clock in
  let healthy = ref [] and live = ref [] in
  let shut_excluded = ref 0 in
  for i = Array.length t.shards - 1 downto 0 do
    let sh = t.shards.(i) in
    if Pool.is_shutdown sh.pool then incr shut_excluded
    else begin
      live := sh :: !live;
      if sh.quarantined_until <= now then healthy := sh :: !healthy
    end
  done;
  let cands =
    if List.length !healthy >= panic_min_healthy then !healthy else !live
  in
  (cands, !shut_excluded)

let record_drop t ~shed ~touched_shut =
  t.stats.dropped <- t.stats.dropped + 1;
  if shed then t.stats.shed <- t.stats.shed + 1
  else t.stats.rejected <- t.stats.rejected + 1;
  if t.rotating <> None then
    t.stats.drops_during_rotation <- t.stats.drops_during_rotation + 1;
  (* The SLO counter: a drop is the rotation's fault only if the request
     was refused or failed because a pool had already been shut down —
     which the atomic-swap design never allows a dispatchable shard to
     be. Nonzero here means the rotation machinery broke its promise. *)
  if touched_shut then t.stats.rotation_drops <- t.stats.rotation_drops + 1

(* Dispatch [payload] on [sh]; returns the pool's verdict plus whether
   the shard burned cycles. The shard pool is fast-forwarded to the
   request's start time (arrival or end of the shard's queue, whichever
   is later) so pool-side downtime windows elapse in fleet time. *)
let dispatch t sh payload =
  let start = max t.clock sh.tail in
  Pool.advance_clock sh.pool start;
  let c0 = Pool.clock sh.pool in
  let resp = Pool.submit sh.pool payload in
  let completion = Pool.clock sh.pool in
  let cost = completion - c0 in
  if cost > 0 then begin
    sh.tail <- completion;
    Queue.push completion sh.completions
  end;
  (resp, completion)

let serve_result t sh ~completion =
  let latency = completion - t.clock in
  t.stats.served <- t.stats.served + 1;
  sh.served <- sh.served + 1;
  Obs.Metrics.observe t.request_cycles latency;
  Obs.Metrics.observe sh.latency latency;
  record_outcome sh ~failed:false;
  sh.served_depth <- Queue.length sh.completions;
  if sh.served_depth > t.stats.max_queue_depth then t.stats.max_queue_depth <- sh.served_depth

let submit t payload =
  t.stats.submitted <- t.stats.submitted + 1;
  t.clock <- t.clock + t.cfg.arrival_cycles;
  rotation_tick t;
  let cands, shut_excluded = candidates t in
  match cands with
  | [] ->
      record_drop t ~shed:true ~touched_shut:(shut_excluded > 0);
      Pool.Dropped
  | cands ->
      let n = List.length cands in
      let pick i = List.nth cands i in
      (* Power of two choices: two uniform picks, keep the shallower
         queue (ties to the lower shard index — deterministic). *)
      let a = pick (Rng.int t.rng n) in
      let b = pick (Rng.int t.rng n) in
      let da = depth a ~now:t.clock and db = depth b ~now:t.clock in
      let best, dbest =
        if da < db || (da = db && a.idx <= b.idx) then (a, da) else (b, db)
      in
      if dbest >= t.cfg.queue_bound then begin
        (* Admission control: the bound is on outstanding work, and it is
           checked before dispatch — the queue can never be driven past
           [queue_bound]. *)
        record_drop t ~shed:true ~touched_shut:false;
        Pool.Dropped
      end
      else begin
        let touched_shut = ref false in
        let rec attempt sh hedges tried =
          if Pool.is_shutdown sh.pool then touched_shut := true;
          let resp, completion = dispatch t sh payload in
          match resp with
          | Pool.Served _ ->
              serve_result t sh ~completion;
              resp
          | Pool.Rejected _ | Pool.Dropped -> (
              record_outcome sh ~failed:true;
              sh.failed <- sh.failed + 1;
              check_health t sh;
              (* Hedge: bounded retry on the least-loaded other shard. *)
              let tried = sh.idx :: tried in
              let next =
                if hedges >= hedge_retries then None
                else
                  List.filter (fun c -> not (List.mem c.idx tried)) cands
                  |> List.fold_left
                       (fun acc c ->
                         let dc = depth c ~now:t.clock in
                         match acc with
                         | Some (_, dbest) when dbest <= dc -> acc
                         | _ when dc >= t.cfg.queue_bound -> acc
                         | _ -> Some (c, dc))
                       None
              in
              match next with
              | Some (c, _) ->
                  t.stats.hedges <- t.stats.hedges + 1;
                  attempt c (hedges + 1) tried
              | None ->
                  record_drop t ~shed:false ~touched_shut:!touched_shut;
                  resp)
        in
        attempt best 0 []
      end

let stats t = t.stats
let clock t = t.clock
let epoch t = t.epoch

let availability s =
  if s.submitted = 0 then 1.0 else float_of_int s.served /. float_of_int s.submitted

let percentile t p = Obs.Metrics.percentile t.request_cycles p
let shard_percentile t i p = Obs.Metrics.percentile t.shards.(i).latency p
let sink t = t.sink
