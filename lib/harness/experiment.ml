open Cmdliner
module J = R2c_obs.Json
module Dconfig = R2c_core.Dconfig
module Pool = R2c_runtime.Pool
module Events = R2c_obs.Events
module Campaign = R2c_fuzz.Campaign

type finding = { experiment : string; check : string; detail : string }

let finding_to_json f =
  J.Obj
    [ ("experiment", J.Str f.experiment); ("check", J.Str f.check); ("detail", J.Str f.detail) ]

let findings_to_string fs =
  String.concat ""
    (List.map (fun f -> Printf.sprintf "%s: %s: %s\n" f.experiment f.check f.detail) fs)

let findings experiment = List.map (fun (check, detail) -> { experiment; check; detail })

type report = { results : Results.t; findings : finding list; jobs : int; wall_ms : float }

let det r = J.Obj (Results.members Det r.results)

(* The [Timed] items, then [jobs] and [wall_ms]. *)
let volatile r =
  J.Obj
    (Results.members Timed r.results
    @ [ ("jobs", J.Int r.jobs); ("wall_ms", J.Float r.wall_ms) ])

type t =
  | Experiment : {
      name : string;
      doc : string;
      term : 'a Term.t;
      run : jobs:int option -> 'a -> Results.t * (string * string) list;
      check : bool;
    }
      -> t

let v ?(check = false) name doc term run = Experiment { name; doc; term; run; check }
let name (Experiment e) = e.name

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* --- shared flags ------------------------------------------------------ *)

let int_opt names default ~docv ~doc = Arg.(value & opt int default & info names ~docv ~doc)
let seed_term default ~doc = int_opt [ "seed" ] default ~docv:"SEED" ~doc

let seeds_term ?(default = [ 3; 11; 27 ])
    ?(doc = "Compilation seeds for median-of-N runs (comma separated).") () =
  Arg.(value & opt (list int) default & info [ "seeds" ] ~docv:"SEEDS" ~doc)

let config_term ~doc =
  Arg.(
    value
    & opt (enum (List.map (fun (n, _) -> (n, n)) Dconfig.named)) "full"
    & info [ "config" ] ~docv:"CFG" ~doc)

let corpus_term ~doc = Arg.(value & opt string "test/corpus" & info [ "corpus" ] ~docv:"DIR" ~doc)

let min_speedup_term default =
  let doc =
    "Gate floor: the measured speedup must reach this factor (0 disables the timing gate)."
  in
  Arg.(value & opt float default & info [ "min-speedup" ] ~docv:"X" ~doc)

(* --- the paper's tables and figures ----------------------------------- *)

let table1 =
  v "table1" "Component overheads (paper Table 1)." (seeds_term ()) (fun ~jobs:_ seeds ->
      (Table1.results (Table1.run ~seeds ()), []))

let table2 =
  v "table2" "Call frequencies (paper Table 2)." (Term.const ()) (fun ~jobs:_ () ->
      (Table2.run (), []))

(* Reproduction gate: the R2C row must stop every attack trial and the
   unprotected baseline must fall to at least one. *)
let table3 =
  let trials = int_opt [ "trials" ] 3 ~docv:"N" ~doc:"Attack trials per cell." in
  let no_overhead =
    Arg.(value & flag & info [ "no-overhead" ] ~doc:"Skip the measured overhead column.")
  in
  v "table3" "Defense comparison (paper Table 3)."
    Term.(const (fun t n -> (t, n)) $ trials $ no_overhead)
    (fun ~jobs:_ (trials, no_overhead) ->
      let rows = Table3.run ~trials ~with_overhead:(not no_overhead) () in
      (Table3.results rows, Table3.gate rows))

let figure6 =
  v "figure6" "Full R2C overhead on four machines (paper Figure 6)." (seeds_term ())
    (fun ~jobs seeds ->
      (Figure6.run ~seeds ?jobs (), []))

let web =
  v "web" "Webserver throughput (Section 6.2.4)."
    Term.(
      const (fun s r -> (s, r))
      $ seeds_term ()
      $ int_opt [ "requests" ] 400 ~docv:"N" ~doc:"Requests per run.")
    (fun ~jobs:_ (seeds, requests) ->
      (Webbench.run ~seeds ~requests (), []))

let memory =
  v "memory" "Memory overhead (Section 6.2.5)." (Term.const ()) (fun ~jobs () ->
      (Membench.run ?jobs (), []))

let security =
  v "security" "Probabilistic security evaluation (Section 7.2)."
    (int_opt [ "trials" ] 8 ~docv:"N" ~doc:"Monte-Carlo trials.")
    (fun ~jobs trials ->
      let r = Secbench.run ~trials ?jobs () in
      (Secbench.results r, Secbench.gate r))

let scale =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 500; 2000; 8000 ]
      & info [ "sizes" ] ~docv:"SIZES" ~doc:"Program sizes in functions.")
  in
  v "scale" "Compilation at scale (Section 6.3)." sizes (fun ~jobs:_ sizes ->
      (Scale.results (Scale.run ~sizes ()), []))

let ablation =
  v "ablation" "Design-choice ablation sweeps." (Term.const ()) (fun ~jobs:_ () ->
      (Ablation.run (), []))

let extensions =
  v "extensions" "Section 7.1/7.3 extensions: race window, RA zeroing vs checks, CFI, MVEE."
    (Term.const ()) (fun ~jobs:_ () -> (Extension_demos.run (), []))

(* --- robustness and static assurance ---------------------------------- *)

let chaos =
  let legit = int_opt [ "requests" ] 2000 ~docv:"N" ~doc:"Legitimate requests per policy run." in
  let budget =
    int_opt [ "probe-budget" ] 4000 ~docv:"N" ~doc:"Attacker probe budget per campaign."
  in
  v "chaos" "Availability under fault injection and a Blind-ROP campaign, per restart policy."
    Term.(const (fun s l b -> (s, l, b)) $ seed_term 11 ~doc:"Pool master seed." $ legit $ budget)
    (fun ~jobs:_ (seed, legit_total, probe_budget) ->
      let runs = Chaos.run ~seed ~legit_total ~probe_budget () in
      let sweep = Chaos.injection_sweep () in
      let equivalent = Chaos.baseline_equivalence () in
      (Chaos.results ~sweep ~equivalent runs, Chaos.gate ~equivalent runs))

let audit =
  v ~check:true "audit"
    "Static image audit: IR validation, invariant lint, cross-variant gadget survivors, \
     sanitizer wiring self-check."
    (seeds_term ~default:[ 2; 3; 5; 7; 11 ] ~doc:"Variant seeds (one diversified image each)." ())
    (fun ~jobs:_ seeds ->
      let a = Audit.run ~seeds () in
      (Audit.results a, Audit.gate a))

let profile_gate ~sums_ok ~trace_error ~spans ~expected =
  Gate.failed
    [
      ("column-sums", "column sums diverge from the CPU's own counters", sums_ok);
      ( "trace-json",
        "trace JSON does not parse: " ^ Option.value trace_error ~default:"",
        trace_error = None );
      ( "request-spans",
        Printf.sprintf "%d request spans but served+dropped = %d" spans expected,
        spans = expected );
    ]

let profile =
  let workload =
    Arg.(value & pos 0 string "mcf" & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name.")
  in
  let top = int_opt [ "top" ] 12 ~docv:"N" ~doc:"Functions shown." in
  let requests = int_opt [ "requests" ] 60 ~docv:"N" ~doc:"Requests in the pool timeline run." in
  let trace =
    Arg.(
      value
      & opt string (Filename.concat (Filename.get_temp_dir_name ()) "r2c_profile_trace.json")
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the pool timeline as Chrome trace_event JSON (and FILE.jsonl); empty to \
             skip.")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Dump the metrics registry exposition.")
  in
  v ~check:true "profile"
    "Per-function cycle/icache profile, baseline vs one R2C configuration, plus an observed \
     worker-pool timeline exported as Chrome trace JSON."
    Term.(
      const (fun w s c t r tr m -> (w, s, c, t, r, tr, m))
      $ workload
      $ seed_term 3 ~doc:"Diversification seed."
      $ config_term ~doc:"R2C configuration to profile against."
      $ top $ requests $ trace $ metrics)
    (fun ~jobs:_ (workload, seed, config, top, requests, trace, metrics) ->
      let r = Prof.run ~cfg:(List.assoc config Dconfig.named) ~cfg_name:config ~seed ~workload () in
      let sums_ok = Prof.sums_ok r in
      (* Pool timeline: export, re-parse, and check the span invariant. *)
      let sink, stats = Prof.pool_timeline ~requests () in
      let events = sink.R2c_obs.Sink.events in
      let doc = Events.to_chrome events in
      let trace_error = match J.parse doc with Ok _ -> None | Error e -> Some e in
      let spans = Events.count ~cat:"request" events in
      let expected = stats.Pool.served + stats.Pool.dropped in
      if trace <> "" then begin
        write trace doc;
        write (trace ^ ".jsonl") (Events.to_jsonl events)
      end;
      let postmortems = Events.count ~cat:"postmortem" events in
      let results =
        Prof.results ~top r
        @ (if metrics then
             [ Results.Note (String.trim (R2c_obs.Metrics.expose sink.R2c_obs.Sink.metrics)) ]
           else [])
        @ Results.
            [
              field "workload" (Str workload);
              field "config" (Str config);
              field "seed" (Int seed);
              field "sums_ok" (Bool sums_ok);
              field "events" ~label:"pool timeline events" (Int (Events.count events));
              field "request_spans" ~label:"  request spans (= served + dropped)" (Int spans);
              field "served" ~label:"  served" (Int stats.Pool.served);
              field "dropped" ~label:"  dropped" (Int stats.Pool.dropped);
              field "crashes" ~label:"  crashes" (Int stats.Pool.crashes);
              field ~kind:Text "postmortems" ~label:"  post-mortems" (Int postmortems);
            ]
        @
        if trace <> "" then [ Results.Note (Printf.sprintf "trace written to %s (+ .jsonl)" trace) ]
        else []
      in
      (results, profile_gate ~sums_ok ~trace_error ~spans ~expected))

let fuzz_gate (rep : Campaign.report) ~replay_failures (sc : Campaign.self_check) =
  List.map (fun (path, why) -> ("corpus-replay", path ^ ": " ^ why)) replay_failures
  @ Gate.failed
      [
        ( "divergence",
          Printf.sprintf "%d program(s) diverged" rep.Campaign.divergences,
          rep.Campaign.divergences = 0 );
        ( "self-check",
          "the planted miscompile was not caught, shrunk to <= 10 instructions and round-tripped",
          sc.Campaign.caught && sc.Campaign.shrunk_size <= 10 && sc.Campaign.roundtrip_ok
          && sc.Campaign.still_fails );
      ]

let fuzz =
  let count = int_opt [ "count" ] 100 ~docv:"N" ~doc:"Generated programs." in
  let fuel =
    int_opt [ "fuel" ] 5_000_000 ~docv:"STEPS"
      ~doc:"Reference-interpreter budget per program (machine budget is 40x)."
  in
  let corpus =
    corpus_term ~doc:"Corpus directory: replayed before the campaign; divergences are saved here."
  in
  v ~check:true "fuzz"
    "Differential fuzzing: generated programs through the reference interpreter vs the compiled \
     machine under the whole Dconfig matrix (plus rerandomized variants); divergences are \
     delta-debugged to minimal .r2c reproducers. Also plants a deliberate miscompile (Sub \
     compiled as Add) and requires the oracle to catch it and the shrinker to reduce it to <= 10 \
     IR instructions."
    Term.(
      const (fun s n f c -> (s, n, f, c))
      $ seed_term 11 ~doc:"Campaign master seed."
      $ count $ fuel $ corpus)
    (fun ~jobs (seed, count, fuel, corpus) ->
      (* Replay the persisted corpus first: known reproducers must stay fixed. *)
      let replay_failures = Campaign.replay ~fuel ~dir:corpus () in
      let t0 = Unix.gettimeofday () in
      let rep = Campaign.run ~corpus_dir:corpus ~fuel ?jobs ~seed ~count () in
      let campaign_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let sc = Campaign.self_check ~fuel ~seed () in
      let results =
        Results.(
          List.map
            (fun (key, v) -> field key v)
            [
              ("seed", Int rep.Campaign.seed);
              ("programs", Int rep.Campaign.programs);
              ("skipped", Int rep.Campaign.skipped);
              ("configs", Int (List.length R2c_fuzz.Oracle.matrix));
              ("points_per_program", Int rep.Campaign.points);
              ("corpus_replayed", Int (List.length (R2c_fuzz.Corpus.files ~dir:corpus)));
              ("corpus_failures", Int (List.length replay_failures));
              ("divergences", Int rep.Campaign.divergences);
            ]
          @ [
              table "reproducers" ~title:"divergence reproducers"
                [ left "path" "path"; col "shrunk_size" "shrunk size" ]
                (List.map (fun (path, size) -> [ Str path; Int size ]) rep.Campaign.reproducers);
              field "self_check"
                (Record
                   [
                     ("caught", Bool sc.Campaign.caught);
                     ("shrunk_size", Int sc.Campaign.shrunk_size);
                     ("reproducer", Str sc.Campaign.reproducer);
                     ("roundtrip_ok", Bool sc.Campaign.roundtrip_ok);
                     ("still_fails", Bool sc.Campaign.still_fails);
                   ]);
              field ~kind:Timed "campaign_wall_ms" (Float (Printf.sprintf "%.0f", campaign_ms));
            ])
      in
      (results, fuzz_gate rep ~replay_failures sc))

(* --- serving, validation, replay and the fast paths -------------------- *)

let fleet =
  let requests =
    int_opt [ "requests" ] 100_000 ~docv:"N" ~doc:"Simulated requests in the campaign."
  in
  let shards = int_opt [ "shards" ] 4 ~docv:"N" ~doc:"Serving shards (pools)." in
  let epoch_cycles =
    int_opt [ "epoch-cycles" ] R2c_runtime.Fleet.default_config.R2c_runtime.Fleet.epoch_cycles
      ~docv:"CYCLES" ~doc:"Live-rerandomization period: rotate every CYCLES fleet cycles."
  in
  let max_p99 =
    int_opt [ "max-p99" ] 0 ~docv:"CYCLES"
      ~doc:
        "Latency SLO: fail the gate if the fleet-wide or any per-shard p99 request latency \
         exceeds CYCLES (0 = disabled)."
  in
  let incremental =
    Arg.(
      value & flag
      & info [ "incremental" ]
          ~doc:
            "Build epoch rotations through the shared per-function codegen cache (body \
             diversification pinned at the campaign seed; rotations relink from cache hits).")
  in
  v ~check:true "fleet"
    "Sharded serving fleet under chaos: >=100k simulated requests across load-balanced pools \
     with admission control and epoch-based live rerandomization; exits nonzero unless \
     availability >= 99.9% with zero rotation-caused drops (and, with --max-p99, the latency \
     SLO holds fleet-wide and per shard)."
    Term.(
      const (fun s r sh e p i -> (s, r, sh, e, p, i))
      $ seed_term 11 ~doc:"Campaign master seed."
      $ requests $ shards $ epoch_cycles $ max_p99 $ incremental)
    (fun ~jobs (seed, requests, shards, epoch_cycles, max_p99, incremental) ->
      let r =
        Fleetbench.run ~seed ~requests ~shards ~epoch_cycles ~jobs:(Option.value jobs ~default:0)
          ~incremental ()
      in
      let max_p99 = if max_p99 > 0 then Some max_p99 else None in
      (Fleetbench.results ?max_p99 r, Fleetbench.gate ?max_p99 r))

let tval =
  v ~check:true "tval"
    "Static translation validation: symbolically execute the emitted code of every workload \
     under the whole Dconfig matrix against its IR semantics, replay the fuzz corpus, and \
     re-catch the planted miscompiles — no execution; exits nonzero on any finding or uncaught \
     plant."
    Term.(
      const (fun s c -> (s, c))
      $ seed_term 3 ~doc:"Diversification seed every point compiles under."
      $ corpus_term ~doc:"Fuzz reproducer corpus replayed through the validator.")
    (fun ~jobs (seed, corpus_dir) ->
      let r = Tvalbench.run ~seed ?jobs ~corpus_dir () in
      (Tvalbench.results r, Tvalbench.gate r))

let replay =
  let tolerance =
    Arg.(
      value & opt float 0.01
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:"Relative profile-fidelity tolerance for cycles/insns/icache.")
  in
  let max_checks =
    int_opt [ "max-checks" ] 200 ~docv:"N"
      ~doc:"Fidelity-oracle budget per trace reduction (each check re-runs the trace)."
  in
  let corpus_out =
    Arg.(
      value & opt string "bench/replays"
      & info [ "corpus-out" ] ~docv:"DIR"
          ~doc:"Write the reduced .r2cr traces to DIR (the bench/replays corpus); empty to skip.")
  in
  v ~check:true "replay"
    "Record-reduce-replay: capture every builtin-boundary crossing of the fleet and compute \
     workloads, delta-debug the traces (>=30% smaller), and replay them as standalone \
     benchmarks; exits nonzero unless every replay reproduces the recorded cycles/insns/icache \
     profile within 1%."
    Term.(const (fun t m c -> (t, m, c)) $ tolerance $ max_checks $ corpus_out)
    (fun ~jobs (tolerance, max_checks, corpus_out) ->
      match Replaybench.run ~tolerance ~max_checks ?jobs () with
      | Error e -> ([], [ ("run", e) ])
      | Ok r -> (
          match if corpus_out = "" then Ok [] else Replaybench.save_corpus ~dir:corpus_out r with
          | Ok written ->
              ( Replaybench.results r @ List.map (fun path -> Results.Note ("  wrote " ^ path)) written,
                Replaybench.gate r )
          | Error e -> (Replaybench.results r, Replaybench.gate r @ [ ("corpus", e) ])))

let rerand =
  let funcs = int_opt [ "funcs" ] 10_000 ~docv:"N" ~doc:"Generated program size in functions." in
  let rotations =
    int_opt [ "rotations" ] 4 ~docv:"N" ~doc:"Link-seed rotations through the cache."
  in
  let checked =
    int_opt [ "checked" ] 2 ~docv:"N"
      ~doc:"Rotations differentially fingerprinted against a cold compile."
  in
  v ~check:true "rerand"
    "Incremental rerandomization: warm the per-function codegen cache on a Genprog-scale image, \
     rotate the link seed, and exit nonzero unless every rebuild is byte-identical to a cold \
     compile, rotations recompile nothing, a one-function edit recompiles exactly one function, \
     and the rebuild beats the cold compile by the speedup floor (--min-speedup, default 10)."
    Term.(
      const (fun f c r k s -> (f, c, r, k, s))
      $ funcs
      $ config_term ~doc:"Diversity configuration."
      $ rotations $ checked $ min_speedup_term 10.0)
    (fun ~jobs (funcs, config, rotations, checked, min_speedup) ->
      let r, t = Rerandbench.run ~funcs ~config ~rotations ~checked ?jobs () in
      let timing = if min_speedup > 0.0 then Some t else None in
      ( Rerandbench.results (r, t),
        Rerandbench.gate ~min_speedup:(max min_speedup 1.0) ?timing r ))

let jit =
  v ~check:true "jit"
    "Three-lane comparison on the SPEC-like suite plus a wide Genprog program: reference \
     dispatch vs tier 3 never compiling (JIT off) vs tier 3 compiling (steady-state, warm code \
     cache). Exits nonzero unless all three lanes are bit-identical on every workload and tier 3 \
     clears the speedup floor over the reference tier (--min-speedup, default 5)."
    Term.(
      const (fun c s f m -> (c, s, f, m))
      $ config_term ~doc:"Diversity configuration."
      $ seed_term 3 ~doc:"Diversification seed."
      $ int_opt [ "fuel" ] 50_000_000 ~docv:"N" ~doc:"Per-run instruction budget."
      $ min_speedup_term 5.0)
    (fun ~jobs (config, seed, fuel, min_speedup) ->
      let r, t = Jitbench.run ~config ~seed ~fuel ?jobs () in
      let timing = if min_speedup > 0.0 then Some t else None in
      (Jitbench.results (r, t), Jitbench.gate ~min_speedup:(max min_speedup 1.0) ?timing r))

let all =
  [
    table1; table2; table3; figure6; web; memory; security; scale; ablation; extensions; chaos;
    audit; profile; fuzz; fleet; tval; replay; rerand; jit;
  ]

let command (Experiment e) =
  let timed args ~jobs =
    let t0 = Unix.gettimeofday () in
    let results, gate = e.run ~jobs args in
    {
      results;
      findings = findings e.name gate;
      jobs = Option.value jobs ~default:(R2c_util.Parallel.default_jobs ());
      wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    }
  in
  Term.(const timed $ e.term)

let run ?jobs e =
  match Cmd.eval_value ~argv:[| name e |] (Cmd.v (Cmd.info (name e)) (command e)) with
  | Ok (`Ok go) -> go ~jobs
  | Ok (`Help | `Version) | Error _ -> invalid_arg ("Experiment.run: " ^ name e)

let to_json name r =
  J.Obj
    [
      ("experiment", J.Str name);
      ("det", det r);
      ("volatile", volatile r);
      ("findings", J.Arr (List.map finding_to_json r.findings));
    ]
