(* Bechamel timings of the kernels behind each paper artifact: one
   micro-benchmark per table/figure, measuring the cost of its
   regeneration kernel at a small size. The experiments themselves run
   from `experiments.exe` (the experiment registry); the repo benchmark is
   perfbench.

   Usage: bench/main.exe *)

module Dconfig = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
module Spec = R2c_workloads.Spec
open R2c_machine

let bechamel_tests () =
  let module M = R2c_harness.Measure in
  let open Bechamel in
  let full = Dconfig.full () in
  let perl = (Spec.find "perlbench").Spec.program in
  let baseline_img = R2c_compiler.Driver.compile perl in
  let r2c_img = Pipeline.compile ~seed:3 full perl in
  let vuln = R2c_defenses.Defenses.build_vulnapp R2c_defenses.Defenses.r2c ~seed:4 in
  let vuln_ref =
    R2c_attacks.Reference.measure
      (R2c_defenses.Defenses.build_vulnapp R2c_defenses.Defenses.r2c ~seed:1004)
  in
  let web = R2c_workloads.Webserver.server `Nginx ~requests:100 in
  let web_img = R2c_compiler.Driver.compile web in
  let gen = R2c_workloads.Genprog.generate ~seed:1 ~funcs:200 in
  Test.make_grouped ~name:"r2c"
    [
      Test.make ~name:"table1.run-baseline"
        (Staged.stage (fun () -> ignore (M.run baseline_img)));
      Test.make ~name:"table1.run-full-r2c"
        (Staged.stage (fun () -> ignore (M.run r2c_img)));
      Test.make ~name:"table2.call-count"
        (Staged.stage (fun () -> ignore (M.run baseline_img).M.calls));
      Test.make ~name:"table3.aocr-attack"
        (Staged.stage (fun () ->
             let target =
               R2c_attacks.Oracle.attach ~break_sym:R2c_workloads.Vulnapp.break_symbol
                 vuln
             in
             ignore
               (R2c_attacks.Aocr.run
                  ~rng:(R2c_util.Rng.create 7)
                  ~reference:vuln_ref ~target ())));
      Test.make ~name:"figure6.compile-full-r2c"
        (Staged.stage (fun () -> ignore (Pipeline.compile ~seed:5 full perl)));
      Test.make ~name:"web.serve-requests"
        (Staged.stage (fun () -> ignore (M.run web_img)));
      Test.make ~name:"memory.maxrss"
        (Staged.stage (fun () ->
             let p = Process.start baseline_img in
             ignore (Process.run p);
             ignore (Process.maxrss_bytes p)));
      Test.make ~name:"security.frame-census"
        (Staged.stage (fun () ->
             let target =
               R2c_attacks.Oracle.attach ~break_sym:R2c_workloads.Vulnapp.break_symbol
                 vuln
             in
             match R2c_attacks.Oracle.to_break target with
             | `Break -> ignore (R2c_attacks.Oracle.leak_stack target ~words:256)
             | `Done _ -> ()));
      Test.make ~name:"scale.compile-200-funcs"
        (Staged.stage (fun () -> ignore (Pipeline.compile ~seed:2 full gen)));
    ]

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  print_endline "\n== Bechamel: regeneration-kernel timings ==";
  Hashtbl.iter
    (fun name tbl ->
      Hashtbl.iter
        (fun test result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-36s %14.0f ns/run (%s)\n" test est name
          | Some _ | None -> Printf.printf "%-36s (no estimate)\n" test)
        tbl)
    results

let () = run_bechamel ()
