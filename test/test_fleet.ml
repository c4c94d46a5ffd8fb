(* Serving fleet: pool drain semantics the fleet builds on, the
   rotation state machine, and the QCheck admission/accounting/quarantine
   properties from the E-FLEET acceptance list. *)

open R2c_machine
module Pool = R2c_runtime.Pool
module Fleet = R2c_runtime.Fleet
module Fleetapp = R2c_workloads.Fleetapp
module Obs = R2c_obs
module Q = QCheck

let dc = R2c_core.Dconfig.full_checked
let build ~seed = Fleetapp.build ~seed dc

let make_pool ?obs ?(cfg = Pool.default_config) () =
  Pool.create ?obs ~cfg ~build ~break_sym:Fleetapp.break_symbol ()

(* The value of series [name] in [m]'s exposition. *)
let exposed m name =
  let prefix = name ^ " " in
  let lines = String.split_on_char '\n' (Obs.Metrics.expose m) in
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some line -> float_of_string (Scanf.sscanf line "%_s %s" Fun.id)
  | None -> Alcotest.failf "no series %s" name

let counter m name = int_of_float (exposed m name)

let serve_n pool n =
  for _ = 1 to n do
    match Pool.submit pool "GET /status" with
    | Pool.Served _ -> ()
    | _ -> Alcotest.fail "legit request not served"
  done

(* --- Pool.shutdown: graceful drain --- *)

let test_pool_shutdown () =
  let pool = make_pool () in
  serve_n pool 5;
  Alcotest.(check bool) "live before" false (Pool.is_shutdown pool);
  Pool.shutdown pool;
  Alcotest.(check bool) "shut after" true (Pool.is_shutdown pool);
  let s = Pool.stats pool in
  let served0 = s.Pool.served and shed0 = s.Pool.shed in
  (match Pool.submit pool "GET /status" with
  | Pool.Dropped -> ()
  | _ -> Alcotest.fail "admission still open after shutdown");
  Alcotest.(check int) "refused request counted shed" (shed0 + 1) s.Pool.shed;
  Alcotest.(check int) "nothing served after drain" served0 s.Pool.served;
  (* idempotent: a second drain changes nothing *)
  let dropped0 = s.Pool.dropped in
  Pool.shutdown pool;
  Alcotest.(check int) "second shutdown is a no-op" dropped0 s.Pool.dropped

let test_pool_shutdown_final_snapshot () =
  (* After the drain the registry reads the pool's final stats. *)
  let sink = Obs.Sink.create () in
  let pool = make_pool ~obs:sink () in
  serve_n pool 4;
  Pool.shutdown pool;
  Alcotest.(check int) "snapshot matches stats" (Pool.stats pool).Pool.served
    (counter sink.Obs.Sink.metrics "pool_served_total")

(* --- fleet: rotation state machine --- *)

let quiet_shard =
  {
    Fleet.default_config.Fleet.shard with
    Pool.workers = 2;
    requests_per_child = 0;
    inject = Inject.zero;
  }

let mk_fleet ?(cfg = Fleet.default_config) ?obs () =
  Fleet.create ~cfg ?obs ~build ~break_sym:Fleetapp.break_symbol ()

let test_fleet_rotates_without_drops () =
  (* No chaos; a tight epoch timer. Every rotation must complete without
     costing a single request. *)
  let cfg =
    {
      Fleet.default_config with
      Fleet.shards = 2;
      seed = 5;
      epoch_cycles = 200_000;
      arrival_cycles = 800;
      shard = quiet_shard;
    }
  in
  let fleet = mk_fleet ~cfg () in
  for _ = 1 to 1500 do
    match Fleet.submit fleet "GET /item/1" with
    | Pool.Served _ -> ()
    | _ -> Alcotest.fail "request lost in a chaos-free fleet"
  done;
  let s = Fleet.stats fleet in
  Alcotest.(check bool)
    (Printf.sprintf "several rotations completed (%d)" s.Fleet.rotations)
    true
    (s.Fleet.rotations >= 3);
  Alcotest.(check int) "epoch = completed rotations" s.Fleet.rotations
    (Fleet.epoch fleet);
  Alcotest.(check int) "zero rotation drops" 0 s.Fleet.rotation_drops;
  Alcotest.(check int) "zero drops at all" 0 s.Fleet.dropped;
  Alcotest.(check int) "everything served" 1500 s.Fleet.served

let test_fleet_metrics_registered () =
  let cfg =
    { Fleet.default_config with Fleet.shards = 2; seed = 3; shard = quiet_shard }
  in
  let sink = Obs.Sink.create () in
  let fleet = mk_fleet ~cfg ~obs:sink () in
  for _ = 1 to 10 do
    ignore (Fleet.submit fleet "GET /item/1")
  done;
  let m = sink.Obs.Sink.metrics in
  let v name = counter m name in
  Alcotest.(check int) "fleet_requests_total" 10 (v "fleet_requests_total");
  Alcotest.(check int) "fleet_served_total" 10 (v "fleet_served_total");
  Alcotest.(check int) "per-shard series present"
    ((Fleet.stats fleet).Fleet.served)
    (v "fleet_shard0_served_total" + v "fleet_shard1_served_total")

(* --- the registry reads the counts Pool and Fleet keep --- *)

let stormy rate =
  { Inject.bitflip = 0.0; load_corrupt = 0.0; spurious_fault = rate; fuel_cut = 0.0 }

(* The exposition after each campaign below, pinned at the text the
   registry printed when it kept copies of the counts: reading them
   through must not change it. *)
let expected_exposition name =
  let path =
    List.find Sys.file_exists [ Filename.concat "registry" name; Filename.concat "test/registry" name ]
  in
  In_channel.with_open_bin path In_channel.input_all

(* An observed Reactive pool of the vulnerable server under chaos, with a
   stack smash every seventh request: crashes, detections, an escalation
   and its rerandomizations. *)
let chaos_pool () =
  let sink = Obs.Sink.create () in
  let inject =
    { Inject.bitflip = 0.001; load_corrupt = 0.001; spurious_fault = 0.00001; fuel_cut = 0.02 }
  in
  let cfg =
    {
      Pool.default_config with
      Pool.policy = R2c_runtime.Policy.(Reactive Escalate_rerandomize);
      seed = 7;
      requests_per_child = 0;
      inject;
    }
  in
  let pool =
    Pool.create ~obs:sink ~cfg
      ~build:(fun ~seed ->
        R2c_workloads.Vulnapp.build ~seed { dc with R2c_core.Dconfig.aslr = false })
      ~break_sym:R2c_workloads.Vulnapp.break_symbol ()
  in
  for i = 1 to 120 do
    ignore (Pool.submit pool (if i mod 7 = 3 then String.make 120 'A' else "GET /status"))
  done;
  (pool, sink)

let check_pool_reads what pool (sink : Obs.Sink.t) =
  let m = sink.Obs.Sink.metrics and s = Pool.stats pool in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (what ^ ": " ^ name) v (counter m name))
    [
      ("pool_requests_total", s.Pool.served + s.Pool.dropped);
      ("pool_served_total", s.Pool.served);
      ("pool_dropped_total", s.Pool.dropped);
      ("pool_crashes_total", s.Pool.crashes);
      ("pool_detections_total", s.Pool.detections);
      ("pool_timeouts_total", s.Pool.timeouts);
      ("pool_restarts_total", s.Pool.restarts);
      ("pool_rerandomizations_total", s.Pool.rerandomizations);
    ];
  Alcotest.(check (float 0.0)) (what ^ ": pool_clock_cycles")
    (float_of_int (Pool.clock pool))
    (exposed m "pool_clock_cycles")

let test_pool_registry_reads_stats () =
  let pool, sink = chaos_pool () in
  let s = Pool.stats pool in
  Alcotest.(check bool) "the campaign detects and escalates" true
    (s.Pool.detections > 0 && s.Pool.rerandomizations > 0);
  check_pool_reads "after the campaign" pool sink;
  Pool.shutdown pool;
  ignore (Pool.submit pool "GET /status");
  check_pool_reads "after shutdown" pool sink;
  Alcotest.(check string) "exposition" (expected_exposition "pool.prom")
    (Obs.Metrics.expose sink.Obs.Sink.metrics)

(* Two shards under spurious faults with a short epoch timer: hedges,
   sheds, quarantines, canary failures and rotations. *)
let chaos_fleet () =
  let cfg =
    {
      Fleet.default_config with
      Fleet.shards = 2;
      seed = 3;
      queue_bound = 4;
      arrival_cycles = 4000;
      epoch_cycles = 300_000;
      quarantine_cycles = 20_000;
      shard =
        {
          Fleet.default_config.Fleet.shard with
          Pool.workers = 2;
          requests_per_child = 16;
          restart_cycles = 30_000;
          rerandomize_cycles = 50_000;
          inject = stormy 0.00003;
        };
    }
  in
  let sink = Obs.Sink.create () in
  let fleet = mk_fleet ~cfg ~obs:sink () in
  for i = 1 to 400 do
    ignore (Fleet.submit fleet (Printf.sprintf "GET /item/%d" (i mod 9)))
  done;
  (fleet, sink)

let test_fleet_registry_reads_stats () =
  let fleet, sink = chaos_fleet () in
  let m = sink.Obs.Sink.metrics and s = Fleet.stats fleet in
  List.iter
    (fun (name, v) -> Alcotest.(check int) name v (counter m name))
    [
      ("fleet_requests_total", s.Fleet.submitted);
      ("fleet_served_total", s.Fleet.served);
      ("fleet_dropped_total", s.Fleet.dropped);
      ("fleet_shed_total", s.Fleet.shed);
      ("fleet_hedges_total", s.Fleet.hedges);
      ("fleet_quarantines_total", s.Fleet.quarantines);
      ("fleet_rotations_total", s.Fleet.rotations);
      ("fleet_rotation_drops_total", s.Fleet.rotation_drops);
      ("fleet_canary_failures_total", s.Fleet.canary_failures);
    ];
  Alcotest.(check (float 0.0)) "fleet_epoch" (float_of_int (Fleet.epoch fleet))
    (exposed m "fleet_epoch");
  Alcotest.(check (float 0.0)) "fleet_clock_cycles" (float_of_int (Fleet.clock fleet))
    (exposed m "fleet_clock_cycles");
  (* The per-shard counts split the fleet's: a failed dispatch is hedged
     or rejected. *)
  let shards suffix =
    List.fold_left
      (fun acc i -> acc + counter m (Printf.sprintf "fleet_shard%d_%s" i suffix))
      0 [ 0; 1 ]
  in
  Alcotest.(check int) "shard served" s.Fleet.served (shards "served_total");
  Alcotest.(check int) "shard quarantines" s.Fleet.quarantines (shards "quarantines_total");
  Alcotest.(check int) "shard failures" (s.Fleet.hedges + s.Fleet.rejected) (shards "failed_total");
  Alcotest.(check bool) "the campaign hedges, sheds, quarantines and rotates" true
    (s.Fleet.hedges > 0 && s.Fleet.shed > 0 && s.Fleet.quarantines > 0
    && s.Fleet.rotations > 0 && s.Fleet.canary_failures > 0);
  Alcotest.(check string) "exposition" (expected_exposition "fleet.prom") (Obs.Metrics.expose m)

(* --- QCheck properties --- *)

let run_fleet ~seed ~queue_bound ~arrival_cycles ~rate ~requests =
  let cfg =
    {
      Fleet.default_config with
      Fleet.shards = 2;
      seed;
      queue_bound;
      arrival_cycles;
      epoch_cycles = 120_000;
      quarantine_cycles = 20_000;
      shard =
        {
          Fleet.default_config.Fleet.shard with
          Pool.workers = 1;
          requests_per_child = 16;
          restart_cycles = 30_000;
          rerandomize_cycles = 50_000;
          inject = stormy rate;
        };
    }
  in
  let fleet = mk_fleet ~cfg () in
  let responses = List.init requests (fun i -> Fleet.submit fleet (Printf.sprintf "GET /item/%d" i)) in
  (fleet, responses)

let prop_admission_bound =
  Q.Test.make ~count:6 ~name:"fleet: admitted depth never exceeds queue_bound"
    Q.(triple (int_range 1 6) (int_range 50 400) (int_range 1 1000))
    (fun (queue_bound, arrival_cycles, seed) ->
      let fleet, _ =
        run_fleet ~seed ~queue_bound ~arrival_cycles ~rate:0.0005 ~requests:250
      in
      (Fleet.stats fleet).Fleet.max_queue_depth <= queue_bound)

let prop_accounting =
  Q.Test.make ~count:6
    ~name:"fleet: served + dropped = submitted, shed + rejected = dropped"
    Q.(pair (int_range 1 1000) (int_range 1 4))
    (fun (seed, bound) ->
      let fleet, responses =
        run_fleet ~seed ~queue_bound:bound ~arrival_cycles:150 ~rate:0.001
          ~requests:300
      in
      let s = Fleet.stats fleet in
      List.length responses = s.Fleet.submitted
      && s.Fleet.served + s.Fleet.dropped = s.Fleet.submitted
      && s.Fleet.shed + s.Fleet.rejected = s.Fleet.dropped
      && s.Fleet.served
         = List.length
             (List.filter (function Pool.Served _ -> true | _ -> false) responses))

let prop_quarantine_no_loss =
  (* Chaos heavy enough to force quarantines; every submission still gets
     exactly one response and the books still balance — quarantining a
     shard never loses a request that was already admitted. *)
  Q.Test.make ~count:5 ~name:"fleet: quarantine never loses a request"
    Q.(int_range 1 1000)
    (fun seed ->
      let fleet, responses =
        run_fleet ~seed ~queue_bound:4 ~arrival_cycles:200 ~rate:0.002 ~requests:400
      in
      let s = Fleet.stats fleet in
      List.length responses = 400
      && s.Fleet.submitted = 400
      && s.Fleet.served + s.Fleet.dropped = 400)

let prop_jobs_deterministic =
  (* The fleet experiment's deterministic half — availability, latency
     percentiles, rotation and drop counters — is byte-identical whether
     background epoch compiles run serially or across 8 domains. *)
  Q.Test.make ~count:3 ~name:"fleet: report identical at jobs=1 and jobs=8"
    Q.(int_range 1 1000)
    (fun seed ->
      let module E = R2c_harness.Experiment in
      let open Cmdliner in
      let fleet = List.find (fun e -> E.name e = "fleet") E.all in
      let argv =
        [| "fleet"; "--seed"; string_of_int seed; "--requests"; "600"; "--shards"; "2";
           "--epoch-cycles"; "150000" |]
      in
      let det jobs =
        match Cmd.eval_value ~argv (Cmd.v (Cmd.info "fleet") (E.command fleet)) with
        | Ok (`Ok go) -> Obs.Json.to_string (E.det (go ~jobs:(Some jobs)))
        | Ok (`Help | `Version) | Error _ -> Alcotest.fail "fleet flags rejected"
      in
      String.equal (det 1) (det 8))

let props = List.map QCheck_alcotest.to_alcotest
    [ prop_admission_bound; prop_accounting; prop_quarantine_no_loss;
      prop_jobs_deterministic ]

let suite =
  [
    ( "fleet",
      [
        Alcotest.test_case "pool shutdown drains gracefully" `Quick test_pool_shutdown;
        Alcotest.test_case "pool shutdown snapshots metrics" `Quick
          test_pool_shutdown_final_snapshot;
        Alcotest.test_case "timer rotation drops nothing" `Slow
          test_fleet_rotates_without_drops;
        Alcotest.test_case "fleet metrics registered" `Quick
          test_fleet_metrics_registered;
        Alcotest.test_case "pool registry reads its stats" `Quick
          test_pool_registry_reads_stats;
        Alcotest.test_case "fleet registry reads its stats" `Quick
          test_fleet_registry_reads_stats;
      ]
      @ props );
  ]
