module Measure = R2c_harness.Measure
module Webserver = R2c_workloads.Webserver

let tiny_program =
  let open Builder in
  let main = func "main" ~nparams:0 in
  call_void main (Ir.Builtin "print_int") [ Ir.Const 5 ];
  ret main (Some (Ir.Const 0));
  program ~main:"main" [ finish main ] []

let test_measure_steady_below_total () =
  let s = Measure.run (R2c_compiler.Driver.compile tiny_program) in
  Alcotest.(check bool) "steady <= total" true (s.Measure.steady_cycles <= s.Measure.total_cycles);
  Alcotest.(check bool) "positive" true (s.Measure.steady_cycles > 0.0)

let test_measure_startup_excluded () =
  (* Under full R2C the constructor runs before main: total-steady must be
     substantially larger than for the baseline. *)
  let base = Measure.run (R2c_compiler.Driver.compile tiny_program) in
  let r2c =
    Measure.run (R2c_core.Pipeline.compile ~seed:2 (R2c_core.Dconfig.full ()) tiny_program)
  in
  let startup s = s.Measure.total_cycles -. s.Measure.steady_cycles in
  Alcotest.(check bool) "BTDP constructor in startup" true
    (startup r2c > startup base +. 1000.0)

let test_overhead_of_identity () =
  (* The baseline config has ratio ~1.0 against itself. *)
  let oh =
    Measure.overhead ~seeds:[ 1 ] R2c_core.Dconfig.baseline
      (R2c_workloads.Spec.find "xz").R2c_workloads.Spec.program
  in
  Alcotest.(check bool) (Printf.sprintf "ratio %.3f ~ 1" oh) true
    (oh > 0.98 && oh < 1.02)

let test_geomean_max () =
  let mx, geo = Measure.geomean_max [ ("a", 1.0); ("b", 1.21); ("c", 1.1) ] in
  Alcotest.(check (float 1e-9)) "max" 1.21 mx;
  Alcotest.(check bool) "geo between" true (geo > 1.0 && geo < 1.21)

let test_throughput_inverse_cycles () =
  let t1 = Webserver.throughput_of_cycles ~requests:100 1_000_000.0 in
  let t2 = Webserver.throughput_of_cycles ~requests:100 2_000_000.0 in
  Alcotest.(check (float 1e-9)) "halved" (t1 /. 2.0) t2

let test_table3_glyphs () =
  let open R2c_harness.Table3 in
  let cell successes = { attack = "x"; trials = 3; successes; detections = 0 } in
  let row =
    {
      defense = "x";
      measured_overhead = None;
      icache_miss_pct = None;
      peak_depth = None;
      paper_overhead = "";
      cpp = false;
      cells = [ cell 0; cell 3; cell 1; cell 2 ];
    }
  in
  let module J = R2c_obs.Json in
  let glyph column =
    let det = R2c_harness.Results.(members Det (results [ row ])) in
    match List.assoc_opt "defenses" det with
    | Some (J.Arr [ r ]) -> J.member column r
    | _ -> None
  in
  Alcotest.(check bool) "protected" true (glyph "ROP" = Some (J.Str "#"));
  Alcotest.(check bool) "broken" true (glyph "JIT-ROP" = Some (J.Str "o"));
  Alcotest.(check bool) "partial" true (glyph "PIROP" = Some (J.Str "+"));
  Alcotest.(check bool) "most trials is broken" true (glyph "AOCR" = Some (J.Str "o"))

let test_paper_constants_sane () =
  List.iter
    (fun (label, mx, geo) ->
      Alcotest.(check bool) (label ^ " max >= geomean") true (mx >= geo))
    R2c_harness.Paper.table1;
  Alcotest.(check bool) "probability example" true
    (abs_float (R2c_harness.Paper.guess_probability_example -. 0.0000683) < 0.00001)

let test_scale_runs_small () =
  (* First row is the browser-shaped workload, then the requested size. *)
  match R2c_harness.Scale.run ~sizes:[ 60 ] () with
  | [ browser; row ] ->
      Alcotest.(check bool) "browser correct" true browser.R2c_harness.Scale.run_ok;
      Alcotest.(check bool) "correct" true row.R2c_harness.Scale.run_ok;
      Alcotest.(check int) "funcs" 60 row.R2c_harness.Scale.funcs;
      Alcotest.(check bool) "text nonempty" true (row.R2c_harness.Scale.text_kb > 0)
  | _ -> Alcotest.fail "expected two rows"

let test_table1_smoke () =
  (* A single-seed run of the component harness on the suite is the
     expensive integration test of the whole measurement stack. *)
  let rows = R2c_harness.Table1.run ~seeds:[ 3 ] () in
  Alcotest.(check int) "six components" 6 (List.length rows);
  List.iter
    (fun (r : R2c_harness.Table1.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: max %.3f >= geomean %.3f >= ~1" r.label r.max r.geomean)
        true
        (r.max >= r.geomean && r.geomean > 0.98))
    rows;
  let get l = List.find (fun (r : R2c_harness.Table1.row) -> r.label = l) rows in
  Alcotest.(check bool) "push > avx" true ((get "Push").geomean > (get "AVX").geomean);
  Alcotest.(check bool) "avx > layout" true ((get "AVX").geomean > (get "Layout").geomean)

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "steady below total" `Quick test_measure_steady_below_total;
        Alcotest.test_case "startup excluded" `Quick test_measure_startup_excluded;
        Alcotest.test_case "identity overhead" `Quick test_overhead_of_identity;
        Alcotest.test_case "geomean/max" `Quick test_geomean_max;
        Alcotest.test_case "throughput inverse" `Quick test_throughput_inverse_cycles;
        Alcotest.test_case "table3 glyphs" `Quick test_table3_glyphs;
        Alcotest.test_case "paper constants" `Quick test_paper_constants_sane;
        Alcotest.test_case "scale small" `Quick test_scale_runs_small;
        Alcotest.test_case "table1 smoke" `Slow test_table1_smoke;
      ] );
  ]
