(* Supervision layer: restart policies, the worker pool, and the chaos
   harness acceptance properties (availability under Blind ROP, rate-0
   injector equivalence). *)

open R2c_machine
module Policy = R2c_runtime.Policy
module Pool = R2c_runtime.Pool
module Chaos = R2c_harness.Chaos
module Vulnapp = R2c_workloads.Vulnapp

let victim_cfg = { R2c_core.Dconfig.full_checked with R2c_core.Dconfig.aslr = false }
let build ~seed = Vulnapp.build ~seed victim_cfg

let make_pool ?(policy = Policy.Same_image) ?(cfg = Pool.default_config) () =
  Pool.create ~cfg:{ cfg with Pool.policy } ~build ~break_sym:Vulnapp.break_symbol ()

(* --- pool request semantics --- *)

let test_pool_serves_legit () =
  let pool = make_pool () in
  let total_lines = ref 0 in
  for _ = 1 to 25 do
    match Pool.submit pool "GET /status" with
    | Pool.Served { cycles; lines } ->
        Alcotest.(check bool) "cycles charged" true (cycles > 0);
        total_lines := !total_lines + lines
    | _ -> Alcotest.fail "legit request not served"
  done;
  (* only the echo handler (every third dispatch) prints, but the client
     must have seen output over the batch *)
  Alcotest.(check bool) "responses visible" true (!total_lines > 0);
  let s = Pool.stats pool in
  Alcotest.(check int) "all served" 25 s.Pool.served;
  Alcotest.(check int) "none dropped" 0 s.Pool.dropped;
  Alcotest.(check bool) "clock advanced" true (Pool.clock pool > 0)

let test_pool_recycles_children () =
  let cfg = { Pool.default_config with Pool.requests_per_child = 1 } in
  let pool = make_pool ~cfg () in
  for _ = 1 to 8 do
    match Pool.submit pool "GET /status" with
    | Pool.Served _ -> ()
    | _ -> Alcotest.fail "not served"
  done;
  Alcotest.(check bool) "children recycled" true ((Pool.stats pool).Pool.recycles >= 5)

let test_pool_timeout_and_retry () =
  (* A request cap far below the handler's cost: every attempt times out,
     retries burn through the other workers, the request is dropped. *)
  let cfg = { Pool.default_config with Pool.request_fuel = 40; Pool.max_retries = 2 } in
  let pool = make_pool ~cfg () in
  (match Pool.submit pool "GET /status" with
  | Pool.Rejected _ | Pool.Dropped -> ()
  | Pool.Served _ -> Alcotest.fail "served under a 40-instruction cap");
  let s = Pool.stats pool in
  Alcotest.(check bool) "timeouts recorded" true (s.Pool.timeouts >= 1);
  Alcotest.(check bool) "retries recorded" true (s.Pool.retried >= 1);
  Alcotest.(check int) "dropped" 1 s.Pool.dropped

let test_pool_crash_restarts_worker () =
  (* A probe that smashes far past the buffer crashes the worker; the pool
     restarts it and keeps serving. *)
  let pool = make_pool () in
  let probe = String.make 400 'A' in
  (match Pool.submit ~retries:0 pool probe with
  | Pool.Rejected _ | Pool.Dropped -> ()
  | Pool.Served _ -> Alcotest.fail "overflow probe served");
  let s = Pool.stats pool in
  Alcotest.(check bool) "crash recorded" true (s.Pool.crashes >= 1);
  Alcotest.(check bool) "restart recorded" true (s.Pool.restarts >= 1);
  match Pool.submit pool "GET /status" with
  | Pool.Served _ -> ()
  | _ -> Alcotest.fail "pool dead after one crash"

(* --- injected faults surface as ordinary crashes --- *)

let test_spurious_injection_crashes () =
  let inject =
    Inject.create ~rates:{ Inject.zero with Inject.spurious_fault = 1.0 } ~seed:3 ()
  in
  let p = Process.start ~inject (build ~seed:5) in
  (match Process.run p with
  | Process.Crashed (Fault.Injected _) -> ()
  | other -> Alcotest.failf "expected injected fault, got %s" (Process.outcome_to_string other));
  Alcotest.(check bool) "injection counted" true
    ((Inject.counters inject).Inject.spurious_faults >= 1)

(* --- the guardrail: rate-0 injection is a no-op --- *)

let test_rate_zero_equivalence () =
  Alcotest.(check bool) "seed 5: outcome, insns, cycles identical" true
    (Chaos.baseline_equivalence ~seed:5 ());
  Alcotest.(check bool) "seed 23: outcome, insns, cycles identical" true
    (Chaos.baseline_equivalence ~seed:23 ())

(* --- the acceptance property: reactive policies out-survive same-image ---

   One deterministic seed, full Blind-ROP campaign against each policy.
   Under Same_image the fork-uniform pool is the textbook BROP target: the
   attacker reads the stack byte-for-byte, locates the return address and
   sweeps gadgets until the sensitive(marker) call lands. Rerandomize and
   Reactive churn the layout under the attacker's feet; the campaign dies
   in a give-up and legit availability stays strictly higher. *)

let test_chaos_acceptance () =
  let seed = 11 and legit_total = 600 in
  let base = Chaos.run_policy ~seed ~legit_total Policy.Same_image in
  let rerand = Chaos.run_policy ~seed ~legit_total Policy.Rerandomize in
  let reactive =
    Chaos.run_policy ~seed ~legit_total (Policy.Reactive Policy.Escalate_rerandomize)
  in
  Alcotest.(check bool) "same-image compromised" true base.Chaos.compromised;
  Alcotest.(check bool) "same-image saw detections" true
    (base.Chaos.stats.Pool.detections > 0);
  Alcotest.(check bool) "rerandomize not compromised" false rerand.Chaos.compromised;
  Alcotest.(check bool) "reactive not compromised" false reactive.Chaos.compromised;
  Alcotest.(check bool) "reactive escalated" true reactive.Chaos.escalated;
  Alcotest.(check bool)
    (Printf.sprintf "rerandomize availability strictly higher (%.3f > %.3f)"
       rerand.Chaos.availability base.Chaos.availability)
    true
    (rerand.Chaos.availability > base.Chaos.availability);
  Alcotest.(check bool)
    (Printf.sprintf "reactive availability strictly higher (%.3f > %.3f)"
       reactive.Chaos.availability base.Chaos.availability)
    true
    (reactive.Chaos.availability > base.Chaos.availability)

(* A small chaos campaign whose workers recycle every second request, so
   most warmups adopt their image's snapshot and some fall back. Every
   value is pinned at what the pool produced when each warmup ran for
   real: stats, clock, served cycles, per-worker injector counters and,
   observed, the whole event timeline (post-mortem ring tails included). *)
let test_snapshot_campaign_pinned () =
  let run ?obs ~fuel_cut policy =
    let inject =
      { Inject.bitflip = 0.00002; load_corrupt = 0.00002; spurious_fault = 0.00001; fuel_cut }
    in
    let cfg = { Pool.default_config with Pool.policy; seed = 7; requests_per_child = 2; inject } in
    let pool = Pool.create ?obs ~cfg ~build ~break_sym:Vulnapp.break_symbol () in
    let served_cycles = ref 0 in
    for i = 1 to 150 do
      match Pool.submit pool (if i mod 37 = 0 then String.make 200 'A' else "GET /status") with
      | Pool.Served { cycles; _ } -> served_cycles := !served_cycles + cycles
      | _ -> ()
    done;
    let s = Pool.stats pool in
    let line =
      Printf.sprintf
        "served=%d dropped=%d shed=%d retried=%d crashes=%d timeouts=%d detections=%d \
         restarts=%d recycles=%d rerand=%d quarantines=%d recovery=%d recoveries=%d clock=%d \
         served_cycles=%d"
        s.Pool.served s.dropped s.shed s.retried s.crashes s.timeouts s.detections s.restarts
        s.recycles s.rerandomizations s.quarantines s.recovery_cycles s.recoveries
        (Pool.clock pool) !served_cycles
    in
    let counters =
      List.map
        (fun (c : Inject.counters) ->
          [ c.bitflips; c.load_corruptions; c.spurious_faults; c.fuel_cuts ])
        (Pool.inject_counters pool)
    in
    (line, counters, s)
  in
  let check ~fuel_cut policy ~line ~counters ~digest =
    let name = Printf.sprintf "%s, fuel_cut %g" (Policy.to_string policy) fuel_cut in
    let got_line, got_counters, s = run ~fuel_cut policy in
    Alcotest.(check string) (name ^ ": stats and clock") line got_line;
    Alcotest.(check (list (list int))) (name ^ ": injector counters") counters got_counters;
    (* A fuel-cut rate is the largest rate, and a warmup makes thousands
       of draws: every restore check fails and the warmup runs. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s: restores (%d), fallbacks (%d)" name s.Pool.restores s.Pool.fallbacks)
      true
      (s.Pool.fallbacks > 0 && (s.Pool.restores > 0) = (fuel_cut = 0.0));
    let sink = R2c_obs.Sink.create () in
    let obs_line, obs_counters, _ = run ~obs:sink ~fuel_cut policy in
    Alcotest.(check string) (name ^ ": observed stats") line obs_line;
    Alcotest.(check (list (list int))) (name ^ ": observed counters") counters obs_counters;
    Alcotest.(check string) (name ^ ": event timeline") digest
      (Digest.to_hex (Digest.string (R2c_obs.Events.to_jsonl sink.R2c_obs.Sink.events)))
  in
  check ~fuel_cut:0.0 Policy.Same_image
    ~line:
      "served=95 dropped=55 shed=48 retried=16 crashes=17 timeouts=0 detections=0 restarts=17 \
       recycles=45 rerand=0 quarantines=0 recovery=10200000 recoveries=17 clock=7604528 \
       served_cycles=1389325"
    ~counters:[ [ 3; 1; 4; 0 ]; [ 6; 1; 2; 0 ]; [ 10; 0; 1; 0 ] ]
    ~digest:"af72eca16a7a27280e773944d7555cc0";
  check ~fuel_cut:0.0 Policy.Rerandomize
    ~line:
      "served=71 dropped=79 shed=75 retried=9 crashes=12 timeouts=0 detections=0 restarts=12 \
       recycles=35 rerand=12 quarantines=0 recovery=12000000 recoveries=12 clock=7242274 \
       served_cycles=1004403"
    ~counters:[ [ 6; 1; 1; 0 ]; [ 5; 1; 0; 0 ]; [ 1; 0; 2; 0 ] ]
    ~digest:"a9327af36f45f28370402683d4388f52";
  check ~fuel_cut:0.02 Policy.Same_image
    ~line:
      "served=119 dropped=31 shed=25 retried=16 crashes=16 timeouts=0 detections=0 restarts=16 \
       recycles=58 rerand=0 quarantines=0 recovery=9600000 recoveries=16 clock=7886989 \
       served_cycles=1699363"
    ~counters:[ [ 3; 0; 5; 2 ]; [ 5; 1; 3; 2 ]; [ 9; 0; 3; 0 ] ]
    ~digest:"999fdc17d37e6b0cfe128bc516d6f451";
  check ~fuel_cut:0.02 Policy.Rerandomize
    ~line:
      "served=108 dropped=42 shed=38 retried=13 crashes=14 timeouts=0 detections=0 restarts=14 \
       recycles=52 rerand=14 quarantines=0 recovery=14000000 recoveries=14 clock=7724206 \
       served_cycles=1558635"
    ~counters:[ [ 6; 0; 3; 1 ]; [ 6; 1; 2; 2 ]; [ 3; 0; 3; 0 ] ]
    ~digest:"4c6589a95ba119f150c64ca597f8988b"

(* --- a fault of the instruction stepped over at a break --- *)

let spurious rate = { Inject.bitflip = 0.0; load_corrupt = 0.0; spurious_fault = rate; fuel_cut = 0.0 }

(* Give a process parked at a break an injector that faults the next
   instruction it runs: the break instruction [Process.resume] steps. *)
let arm (p : Process.t) =
  p.Process.cpu <- Cpu.clone ~inject:(Inject.create ~rates:(spurious 1.0) ~seed:1 ()) p.Process.cpu

let test_resume_step_fault () =
  let img = build ~seed:1 in
  let break = Image.symbol img Vulnapp.break_symbol in
  let p = Process.start img in
  Alcotest.(check bool) "parked" true (Process.run_until p ~break:[ break ] = `Hit);
  arm p;
  let fuel0 = p.Process.fuel_left in
  (match Process.resume p ~break:[ break ] with
  | `Step_fault (Fault.Injected { rip; _ }) -> Alcotest.(check int) "at the break" break rip
  | _ -> Alcotest.fail "the stepped instruction did not fault");
  Alcotest.(check int) "recorded on the process" 1 p.Process.crashes;
  Alcotest.(check int) "no fuel charged" fuel0 p.Process.fuel_left;
  (* The attacker's oracle returns the stepped instruction's own fault,
     and the monitor's count comes from the process. *)
  let module Oracle = R2c_attacks.Oracle in
  let o = Oracle.attach img in
  Alcotest.(check bool) "oracle parked" true (Oracle.to_break o = `Break);
  arm (Oracle.proc o);
  (* Parked at the first stop, [to_serving]'s second leg steps the armed
     instruction. *)
  (match Oracle.to_serving o with
  | Error e ->
      Alcotest.(check bool) ("to_serving: " ^ e) true
        (String.ends_with ~suffix:(Printf.sprintf "at rip=0x%x)" break) e)
  | Ok () -> Alcotest.fail "to_serving: no crash");
  Alcotest.(check int) "to_serving counted" 1 (Oracle.crashes o);
  Alcotest.check_raises "to_serving ended the process"
    (Invalid_argument "Oracle.resume_to_end: process dead") (fun () ->
      ignore (Oracle.resume_to_end o));
  let o = Oracle.attach img in
  Alcotest.(check bool) "at symbol" true (Oracle.to_symbol o Vulnapp.break_symbol = `Break);
  arm (Oracle.proc o);
  (match Oracle.to_symbol o Vulnapp.break_symbol with
  | `Done (Process.Crashed (Fault.Injected { rip; _ })) -> Alcotest.(check int) "to_symbol" break rip
  | _ -> Alcotest.fail "to_symbol: no injected fault at the break");
  Alcotest.(check int) "to_symbol counted" 1 (Oracle.crashes o);
  (* A pool whose injector faults one stepped break among its spurious
     faults: stats, clock and timeline are what the pool produced before
     the step went through [Process.resume]. *)
  let sink = R2c_obs.Sink.create () in
  let build ~seed = R2c_workloads.Fleetapp.build ~seed R2c_core.Dconfig.baseline in
  let cfg =
    { Pool.default_config with Pool.seed = 3; restart_cycles = 40_000; inject = spurious 0.001 }
  in
  let pool = Pool.create ~obs:sink ~cfg ~build ~break_sym:R2c_workloads.Fleetapp.break_symbol () in
  for i = 1 to 100 do
    ignore (Pool.submit pool (Printf.sprintf "GET /item/%d" i))
  done;
  let s = Pool.stats pool in
  Alcotest.(check string) "pool stats"
    "served=98 dropped=2 retried=19 crashes=21 restarts=21 clock=4086145"
    (Printf.sprintf "served=%d dropped=%d retried=%d crashes=%d restarts=%d clock=%d" s.Pool.served
       s.dropped s.retried s.crashes s.restarts (Pool.clock pool));
  let events = R2c_obs.Sink.(sink.events) in
  Alcotest.(check string) "pool timeline" "ed97367f1e688d673f4073aab84c184b"
    (Digest.to_hex (Digest.string (R2c_obs.Events.to_jsonl events)));
  let at_break =
    Fault.to_string
      (Fault.Injected
         { rip = Image.symbol (build ~seed:3) R2c_workloads.Fleetapp.break_symbol; kind = "spurious-segv" })
  in
  Alcotest.(check int) "one crash at a stepped break" 1
    (List.length
       (List.filter
          (fun e ->
            let module J = R2c_obs.Json in
            J.member "name" e = Some (J.Str "crash")
            && Option.bind (J.member "args" e) (J.member "fault") = Some (J.Str at_break))
          (Test_obs.jsonl_events (R2c_obs.Events.to_jsonl events))))

let suite =
  [
    ( "runtime",
      [
        Alcotest.test_case "pool serves legit traffic" `Quick test_pool_serves_legit;
        Alcotest.test_case "requests_per_child recycles" `Quick test_pool_recycles_children;
        Alcotest.test_case "timeout, retry, drop" `Quick test_pool_timeout_and_retry;
        Alcotest.test_case "crash restarts worker" `Quick test_pool_crash_restarts_worker;
        Alcotest.test_case "spurious injection crashes" `Quick test_spurious_injection_crashes;
        Alcotest.test_case "rate-0 injection is exact no-op" `Quick test_rate_zero_equivalence;
        Alcotest.test_case "snapshot campaign pinned" `Quick test_snapshot_campaign_pinned;
        Alcotest.test_case "fault on a stepped break" `Quick test_resume_step_fault;
        Alcotest.test_case "reactive out-survives same-image" `Slow test_chaos_acceptance;
      ] );
  ]
