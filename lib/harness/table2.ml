let run () =
  let open Results in
  let raw =
    List.map
      (fun (b : R2c_workloads.Spec.benchmark) ->
        (* Median executed calls across the benchmark's inputs, as the
           paper's Table 2 does. *)
        let calls =
          R2c_util.Stats.median_int
            (List.map
               (fun p -> (Measure.run (R2c_compiler.Driver.compile p)).Measure.calls)
               b.inputs)
        in
        (b.name, calls, b.paper_calls))
      (R2c_workloads.Spec.all ())
  in
  let base_measured =
    List.fold_left (fun acc (_, c, _) -> min acc c) max_int raw |> float_of_int
  in
  let base_paper = List.fold_left (fun acc (_, _, p) -> Float.min acc p) infinity raw in
  let f0 x = Float (Printf.sprintf "%.0f", x) in
  [
    table "benchmarks" ~title:"Table 2: median call frequencies (measured at ~2.5e-7 scale)"
      [
        left "benchmark" "benchmark"; col "calls" "calls"; col "paper_calls" "paper calls";
        col "rel" "rel (lbm=1)"; col "paper_rel" "paper rel";
      ]
      (List.map
         (fun (name, calls, paper) ->
           [
             Str name; Int calls; f0 paper; f0 (float_of_int calls /. base_measured);
             f0 (paper /. base_paper);
           ])
         raw);
  ]
