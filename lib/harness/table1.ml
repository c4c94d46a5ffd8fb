module Dconfig = R2c_core.Dconfig
open Results

type row = {
  label : string;
  max : float;
  geomean : float;
  per_benchmark : (string * float) list;
}

let components =
  [
    ("Push", Dconfig.btra_push_only);
    ("AVX", Dconfig.btra_avx_only);
    ("BTDP", Dconfig.btdp_only);
    ("Prolog", Dconfig.prolog_only);
    ("Layout", Dconfig.layout_only);
    ("OIA", Dconfig.oia_only);
  ]

let run ?(seeds = [ 3; 11; 27 ]) () =
  let baselines = Measure.baselines () in
  List.map
    (fun (label, cfg) ->
      let per_benchmark = Measure.suite_overheads ~baselines ~seeds cfg in
      let max, geomean = Measure.geomean_max per_benchmark in
      { label; max; geomean; per_benchmark })
    components

let results rows =
  let paper label =
    match List.assoc_opt label (List.map (fun (l, m, g) -> (l, (m, g))) Paper.table1) with
    | Some (m, g) -> (ratio m, ratio g)
    | None when label = "OIA" -> (ratio Paper.oia_max, ratio Paper.oia_geomean)
    | None -> (Missing, Missing)
  in
  [
    table "components" ~title:"Table 1: component overheads (ratio to baseline)"
      [
        left "component" "component"; col "max" "max"; col "geomean" "geomean";
        col "paper_max" "paper max"; col "paper_geomean" "paper geomean";
      ]
      (List.map
         (fun r ->
           let pm, pg = paper r.label in
           [ Str r.label; ratio r.max; ratio r.geomean; pm; pg ])
         rows);
  ]
