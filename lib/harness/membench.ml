module Stats = R2c_util.Stats
module Dconfig = R2c_core.Dconfig

(* One row: the overhead fraction, and the table cells — maxrss of the
   baseline and full builds, and the share of the overhead the BTDP pages
   account for (differenced against a full-minus-BTDP build). *)
let measure_one ~seed name program =
  let full = Dconfig.full () in
  let no_btdp = { full with Dconfig.btdp = None } in
  let rss img = (Measure.run img).Measure.maxrss_bytes in
  let base = rss (R2c_compiler.Driver.compile program) in
  let r2c = rss (R2c_core.Pipeline.compile ~seed full program) in
  let without_btdp = rss (R2c_core.Pipeline.compile ~seed no_btdp program) in
  let overhead = float_of_int (r2c - base) /. float_of_int base in
  ( overhead,
    Results.
      [
        Str name;
        Int (base / 1024);
        Int (r2c / 1024);
        pct overhead;
        pct (float_of_int (r2c - without_btdp) /. float_of_int (max 1 (r2c - base)));
      ] )

let run ?(seed = 17) ?jobs () =
  let open Results in
  (* One flat task list over both suites: each row compiles three images
     (base, full, full-minus-BTDP) and runs them, all from this row's own
     inputs — independent work fanned out over the domain pool. *)
  let spec_tasks =
    List.map
      (fun (b : R2c_workloads.Spec.benchmark) () -> measure_one ~seed b.name b.program)
      (R2c_workloads.Spec.all ())
  in
  let web_tasks =
    List.map
      (fun (fl, name) () ->
        measure_one ~seed name (R2c_workloads.Webserver.server fl ~requests:200))
      [ (`Nginx, "nginx"); (`Apache, "apache") ]
  in
  let rows = R2c_util.Parallel.tasks ?jobs (spec_tasks @ web_tasks) in
  let spec = List.filteri (fun i _ -> i < List.length spec_tasks) rows in
  let lo, hi = Paper.spec_memory_overhead in
  [
    table "workloads" ~title:"Memory overhead (maxrss)"
      [
        left "workload" "workload"; col "base_kb" "base KB"; col "r2c_kb" "R2C KB";
        col "overhead" "overhead"; col "btdp_share" "BTDP share";
      ]
      (List.map snd rows);
    Note
      (Printf.sprintf "paper: SPEC %.0f-%.0f%%; webserver ~%.0f%% of which ~%.0f%% from BTDP pages"
         (lo *. 100.0) (hi *. 100.0)
         (Paper.webserver_memory_overhead *. 100.0)
         (Paper.webserver_memory_btdp_share *. 100.0));
    field "spec_median_overhead" ~label:"measured SPEC median"
      (pct (Stats.median (List.map fst spec)));
  ]
