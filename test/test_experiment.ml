(* The experiment registry: unique names that the Makefile and CI can
   resolve, each of the eleven gates turning one planted breach (on a
   constructed report, not a campaign) into exactly one finding, findings
   that survive a JSON round-trip, and the one results renderer: text
   through [Table.render], [det] and [volatile] split by marking. *)

module E = R2c_harness.Experiment
module H = R2c_harness
module J = R2c_obs.Json
module Pool = R2c_runtime.Pool
module Fleet = R2c_runtime.Fleet
module Policy = R2c_runtime.Policy
module Campaign = R2c_fuzz.Campaign
module RTrace = R2c_replay.Trace

let names = List.map E.name E.all

let check_names =
  List.filter_map (fun (E.Experiment { name; check; _ }) -> if check then Some name else None) E.all

(* --- registry --------------------------------------------------------- *)

let test_names_unique () =
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "nineteen experiments" 19 (List.length names);
  Alcotest.(check (list string)) "the gate entries make check runs"
    [ "audit"; "profile"; "fuzz"; "fleet"; "tval"; "replay"; "rerand"; "jit" ]
    check_names

(* Repo files, from [dune runtest]'s directory or the repo root. *)
let read path =
  In_channel.with_open_bin
    (List.find Sys.file_exists [ "../" ^ path; path ])
    In_channel.input_all

(* Every word after [experiments.exe --] names a registry entry or one of
   the front-end commands over the registry, and every archived
   [NAME_out.json] is a report [experiments check] writes (or the
   [*_out.json] glob). *)
let test_front_ends_resolve () =
  let commands = [ "all"; "check"; "determinism" ] in
  let words s = String.split_on_char ' ' (String.map (function '\n' | '\t' -> ' ' | c -> c) s) in
  List.iter
    (fun file ->
      let rec scan = function
        | "bin/experiments.exe" :: "--" :: name :: rest ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: experiments %s resolves" file name)
              true
              (List.mem name names || List.mem name commands);
            scan rest
        | w :: rest ->
            (match Filename.chop_suffix_opt ~suffix:"_out.json" w with
            | Some "*" -> () (* a glob archives whatever [check] wrote *)
            | Some name ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s is a check report" file w)
                  true (List.mem name check_names)
            | None -> ());
            scan rest
        | [] -> ()
      in
      scan (words (read file)))
    [ "Makefile"; ".github/workflows/ci.yml" ]

let test_finding_json_roundtrip () =
  let detail = "rotation_drops 1 <> 0 \"quoted\"\n\t\xc3\xa9" in
  let f = { E.experiment = "fleet"; check = "rotation_drops"; detail } in
  let j = E.to_json "fleet" { E.results = []; findings = [ f ]; jobs = 1; wall_ms = 0.0 } in
  Alcotest.(check bool) "parse (to_string findings) = findings" true
    (match J.member "findings" j with
    | Some (J.Arr [ fj ] as fs) ->
        J.parse (J.to_string fs) = Ok fs
        && J.member "detail" fj = Some (J.Str detail)
        && J.member "check" fj = Some (J.Str "rotation_drops")
    | _ -> false);
  Alcotest.(check string) "text rendering"
    ("fleet: rotation_drops: " ^ detail ^ "\n")
    (E.findings_to_string [ f ])

(* --- the results renderer ---------------------------------------------- *)

let test_results_render () =
  let module R = H.Results in
  let module T = R2c_util.Table in
  let f2 x = R.Float (Printf.sprintf "%.2f", x) in
  let results =
    [
      R.field "programs" (R.Int 17);
      R.field ~kind:R.Timed "campaign_ms" ~label:"campaign ms"
        (R.Float (Printf.sprintf "%.0f", 1234.0));
      R.table "rows" ~title:"per row"
        [
          R.left "name" "name"; R.col "overhead" "overhead"; R.col "shards" "shards";
          R.left "io" "io"; R.col ~kind:R.Timed "compile_s" "compile s";
        ]
        [
          [ R.Str "a"; R.Missing; R.Ints [ 1; 2 ]; R.Record [ ("in", R.Int 3); ("out", R.Int 4) ]; f2 0.25 ];
          [ R.Str "b"; R.pct 0.066; R.Strs [ "x"; "y" ]; R.Record [ ("in", R.Int 5); ("out", R.Int 60) ]; f2 1.5 ];
        ];
      R.Note "a note";
    ]
  in
  Alcotest.(check string)
    "text: fields, then the table through Table.render (a column of records as its own table, \
     keyed by the first column), then the note"
    ("programs: 17\ncampaign ms: 1234\n\n== per row ==\n"
    ^ T.render ~headers:[ "name"; "overhead"; "shards"; "compile s" ]
        ~aligns:[ T.Left; T.Right; T.Right; T.Right ]
        [ [ "a"; "-"; "1, 2"; "0.25" ]; [ "b"; "6.6%"; "x, y"; "1.50" ] ]
    ^ "\n\n== per row: io ==\n"
    ^ T.render ~headers:[ "name"; "in"; "out" ] ~aligns:[ T.Left; T.Right; T.Right ]
        [ [ "a"; "3"; "4" ]; [ "b"; "5"; "60" ] ]
    ^ "\n" ^ "a note\n")
    (R.text results);
  let det = J.Obj (R.members R.Det results) and volatile = J.Obj (R.members R.Timed results) in
  Alcotest.(check string) "det holds the deterministic values only"
    ({|{"programs":17,"rows":[{"name":"a","overhead":null,"shards":[1,2],"io":{"in":3,"out":4}},|}
    ^ {|{"name":"b","overhead":0.066,"shards":["x","y"],"io":{"in":5,"out":60}}]}|})
    (J.to_string det);
  Alcotest.(check string) "volatile holds every host-timed value"
    {|{"campaign_ms":1234.0,"rows":[{"compile_s":0.25},{"compile_s":1.5}]}|}
    (J.to_string volatile);
  List.iter
    (fun (half, v) ->
      Alcotest.(check bool) (half ^ " round-trips through Json.parse") true
        (J.parse (J.to_string v) = Ok v))
    [ ("det", det); ("volatile", volatile) ]

(* Paper entries report data: a non-empty [det], byte-identical at jobs=1
   and jobs=8. *)
let test_paper_det_jobs () =
  List.iter
    (fun name ->
      let e = List.find (fun e -> E.name e = name) E.all in
      let det jobs = J.to_string (E.det (E.run ~jobs e)) in
      let serial = det 1 in
      Alcotest.(check bool) (name ^ ": det is not empty") true (serial <> "{}");
      Alcotest.(check string) (name ^ ": det identical at jobs=1 and jobs=8") serial (det 8))
    [ "security"; "web"; "memory" ]

(* --- gates: clean report -> no finding, one planted breach -> one ------- *)

let one_breach name ~clean ~breached =
  Alcotest.(check int) (name ^ ": clean report passes") 0 (List.length (E.findings name clean));
  match E.findings name breached with
  | [ f ] -> Alcotest.(check string) (name ^ ": finding names its experiment") name f.E.experiment
  | fs -> Alcotest.failf "%s: %d findings for one planted breach" name (List.length fs)

let pool_stats () =
  {
    Pool.served = 10; dropped = 0; shed = 0; retried = 0; crashes = 0; timeouts = 0;
    detections = 0; restarts = 0; recycles = 0; rerandomizations = 0; quarantines = 0;
    mvee_blocks = 0; recovery_cycles = 0; recoveries = 0; restores = 0; fallbacks = 0;
    first_detection = None;
    first_response = None;
  }

let test_table3_gate () =
  let row defense successes =
    {
      H.Table3.defense; measured_overhead = None; icache_miss_pct = None; peak_depth = None;
      paper_overhead = ""; cpp = false;
      cells = [ { H.Table3.attack = "aocr"; trials = 3; successes; detections = 0 } ];
    }
  in
  one_breach "table3"
    ~clean:(H.Table3.gate [ row "R2C" 0; row "unprotected" 3 ])
    ~breached:(H.Table3.gate [ row "R2C" 1; row "unprotected" 3 ])

let test_security_gate () =
  let r aocr_successes =
    {
      H.Secbench.ra_candidates_mean = 0.; analytic_ra_p = 0.; empirical_ra_p = 0.;
      heap_benign_mean = 0.; heap_btdp_mean = 0.; analytic_pick_p = 0.; empirical_pick_p = 0.;
      aocr_trials = 8; aocr_successes; aocr_detections = 0; brop_trials = 8; brop_successes = 0;
      brop_detections = 0;
    }
  in
  one_breach "security" ~clean:(H.Secbench.gate (r 0)) ~breached:(H.Secbench.gate (r 1))

let test_chaos_gate () =
  let result policy compromised =
    {
      H.Chaos.policy; stats = pool_stats (); legit_served = 10; legit_total = 10;
      availability = 1.0; probes = 5; attack_note = ""; compromised; escalated = false;
    }
  in
  (* The same-image policy losing is the expected shape, not a breach. *)
  let results rerand = [ result Policy.Same_image true; result Policy.Rerandomize rerand ] in
  one_breach "chaos"
    ~clean:(H.Chaos.gate ~equivalent:true (results false))
    ~breached:(H.Chaos.gate ~equivalent:true (results true))

let test_audit_gate () =
  let variant findings =
    {
      H.Audit.label = "r2c-checked"; seed = 3; findings; n_gadgets = 40;
      cfg_stats =
        {
          R2c_analysis.Cfg.n_funcs = 1; n_blocks = 1; n_edges = 0; n_call_edges = 0;
          n_indirect = 0;
        };
    }
  in
  let audit checked =
    {
      H.Audit.ir_checked = [ ("w", []) ]; dataflow = []; r2c = [ variant [] ];
      r2c_survivors = 2; baseline = [ variant [] ]; baseline_survivors = 30; checked;
      selfcheck = []; ir_selfcheck = [];
    }
  in
  let lint = { R2c_analysis.Lint.rule = "btra-sled"; f_addr = Some 0x1000; detail = "planted" } in
  one_breach "audit"
    ~clean:(H.Audit.gate (audit (variant [])))
    ~breached:(H.Audit.gate (audit (variant [ lint ])))

let test_profile_gate () =
  let gate spans = E.profile_gate ~sums_ok:true ~trace_error:None ~spans ~expected:60 in
  one_breach "profile" ~clean:(gate 60) ~breached:(gate 59)

let test_fuzz_gate () =
  let rep divergences =
    {
      Campaign.seed = 11; requested = 10; programs = 10; skipped = 0; points = 11; divergences;
      reproducers = [];
    }
  in
  let sc =
    {
      Campaign.caught = true; shrunk_size = 4; reproducer = "r.r2c"; roundtrip_ok = true;
      still_fails = true;
    }
  in
  one_breach "fuzz"
    ~clean:(E.fuzz_gate (rep 0) ~replay_failures:[] sc)
    ~breached:(E.fuzz_gate (rep 1) ~replay_failures:[] sc)

let test_fleet_gate () =
  let report rotation_drops =
    {
      H.Fleetbench.seed = 11; requests = 100_000; shards = 4; epoch_cycles = 1; incremental = false;
      fleet =
        {
          Fleet.submitted = 100_000; served = 100_000; dropped = 0; shed = 0; rejected = 0;
          hedges = 0; quarantines = 0; rotations = 3; rotation_drops; drops_during_rotation = 0;
          canary_failures = 0; max_queue_depth = 1;
        };
      pool = pool_stats (); clock = 1; epochs = 3; p50 = 1; p99 = 1; shard_p50 = [ 1 ];
      shard_p99 = [ 1 ]; availability = 1.0;
    }
  in
  one_breach "fleet" ~clean:(H.Fleetbench.gate (report 0)) ~breached:(H.Fleetbench.gate (report 1))

(* A planted p99 breach under [--max-p99] lands in [det.gate_failures] as
   well as in the findings; without the ceiling the det is unchanged. *)
let test_fleet_p99_in_det () =
  let report =
    {
      H.Fleetbench.seed = 11; requests = 100_000; shards = 4; epoch_cycles = 1; incremental = false;
      fleet =
        {
          Fleet.submitted = 100_000; served = 100_000; dropped = 0; shed = 0; rejected = 0;
          hedges = 0; quarantines = 0; rotations = 3; rotation_drops = 0; drops_during_rotation = 0;
          canary_failures = 0; max_queue_depth = 1;
        };
      pool = pool_stats (); clock = 1; epochs = 3; p50 = 1; p99 = 900; shard_p50 = [ 1; 1 ];
      shard_p99 = [ 50; 900 ]; availability = 1.0;
    }
  in
  let gate_failures results =
    match List.assoc_opt "gate_failures" (H.Results.members H.Results.Det results) with
    | Some j -> R2c_obs.Json.to_string j
    | None -> Alcotest.fail "no gate_failures in det"
  in
  Alcotest.(check string) "no ceiling: clean" "[]" (gate_failures (H.Fleetbench.results report));
  Alcotest.(check string) "ceiling met: clean" "[]"
    (gate_failures (H.Fleetbench.results ~max_p99:900 report));
  Alcotest.(check string) "breach in det"
    {|["p99 900 > 100 cycles","shard 1 p99 900 > 100 cycles"]|}
    (gate_failures (H.Fleetbench.results ~max_p99:100 report));
  Alcotest.(check int) "breach in findings" 2
    (List.length (H.Fleetbench.gate ~max_p99:100 report))

let test_tval_gate () =
  let point = { H.Tvalbench.pname = "full"; pfuncs = 1; pblocks = 1; pfindings = [] } in
  let report caught =
    {
      H.Tvalbench.seed = 3;
      workloads =
        List.init 17 (fun i ->
            {
              H.Tvalbench.wname = string_of_int i;
              ir_findings = [];
              points = List.init 11 (fun _ -> point);
            });
      plants = [ { H.Tvalbench.plname = "sub-to-add"; plpoint = "full"; caught } ];
      corpus = [];
    }
  in
  one_breach "tval" ~clean:(H.Tvalbench.gate (report 1)) ~breached:(H.Tvalbench.gate (report 0))

let test_replay_gate () =
  let dir = List.find Sys.file_exists [ "../bench/replays"; "bench/replays" ] in
  let trace =
    match RTrace.load (Filename.concat dir "genprog.r2cr") with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let report failures =
    {
      H.Replaybench.case_reports =
        [
          {
            H.Replaybench.cr_name = "genprog"; cr_trace = trace;
            cr_reduce =
              { R2c_replay.Reduce.raw_bytes = 10; reduced_bytes = 1; raw_spans = 0;
                reduced_spans = 0; checks = 1; kept = 1 };
            cr_replay =
              { R2c_replay.Replayer.r_cycles = 1.; r_insns = 1; r_accesses = 1; r_misses = 0;
                r_exit = 0; r_output_len = 0; r_output_hash = 0L };
            cr_failures = failures;
          };
        ];
    }
  in
  one_breach "replay"
    ~clean:(H.Replaybench.gate (report []))
    ~breached:(H.Replaybench.gate (report [ "cycles 2 vs 1" ]))

let test_rerand_gate () =
  let report ~identical ~loaded_identical =
    {
      H.Rerandbench.funcs = 10; config = "full"; body_seed = 3; base_link_seed = 100;
      rotations = 4; checked = 2; identical; loaded_identical; warm_misses = 10;
      rotation_hits = 40; rotation_misses = 0; edit_misses = 1; edit_missed = [ "f5" ];
      edit_identical = true; cache_entries = 10;
    }
  in
  one_breach "rerand"
    ~clean:(H.Rerandbench.gate (report ~identical:true ~loaded_identical:true))
    ~breached:(H.Rerandbench.gate (report ~identical:false ~loaded_identical:true));
  one_breach "rerand"
    ~clean:(H.Rerandbench.gate (report ~identical:true ~loaded_identical:true))
    ~breached:(H.Rerandbench.gate (report ~identical:true ~loaded_identical:false))

let test_jit_gate () =
  let row =
    {
      H.Jitbench.name = "mcf"; insns = 100; cycles_bits = 0L; icache_misses = 0; identical = true;
      profile_identical = true; compiled = 2; entry_enters = 1; osr_enters = 1; deopts = 0;
      tier3_insns = 90; interp_insns = 10;
    }
  in
  let report identical =
    {
      H.Jitbench.seed = 3; config = "full"; fuel = 1; rows = [ row ]; identical;
      compiled_total = 2; osr_total = 1; tier3_share = 0.9;
    }
  in
  one_breach "jit" ~clean:(H.Jitbench.gate (report true)) ~breached:(H.Jitbench.gate (report false))

let suite =
  [
    ( "experiment",
      [
        Alcotest.test_case "registry names are unique" `Quick test_names_unique;
        Alcotest.test_case "Makefile and CI names resolve" `Quick test_front_ends_resolve;
        Alcotest.test_case "finding JSON round-trips" `Quick test_finding_json_roundtrip;
        Alcotest.test_case "results render to text, det and volatile" `Quick test_results_render;
        Alcotest.test_case "paper entries: det non-empty and job-count independent" `Slow
          test_paper_det_jobs;
        Alcotest.test_case "table3 gate" `Quick test_table3_gate;
        Alcotest.test_case "security gate" `Quick test_security_gate;
        Alcotest.test_case "chaos gate" `Quick test_chaos_gate;
        Alcotest.test_case "audit gate" `Quick test_audit_gate;
        Alcotest.test_case "profile gate" `Quick test_profile_gate;
        Alcotest.test_case "fuzz gate" `Quick test_fuzz_gate;
        Alcotest.test_case "fleet gate" `Quick test_fleet_gate;
        Alcotest.test_case "fleet p99 breach in det" `Quick test_fleet_p99_in_det;
        Alcotest.test_case "tval gate" `Quick test_tval_gate;
        Alcotest.test_case "replay gate" `Quick test_replay_gate;
        Alcotest.test_case "rerand gate" `Quick test_rerand_gate;
        Alcotest.test_case "jit gate" `Quick test_jit_gate;
      ] );
  ]
