module Stats = R2c_util.Stats
module Parallel = R2c_util.Parallel

let bar width ratio =
  (* Scale: 25% overhead = full width. *)
  let n = int_of_float (Float.min 1.0 ((ratio -. 1.0) /. 0.25) *. float_of_int width) in
  String.make (max 0 n) '#'

(* The machine x benchmark matrix is embarrassingly parallel: every cell
   compiles and runs its own images. Flattening both axes into one task
   list keeps all domains busy even when one machine's column is slower
   than another's; [Parallel.map] preserves cell order, so regrouping by
   machine reproduces the serial result exactly. *)
let run ?(seeds = [ 5; 13; 29 ]) ?jobs () =
  let open Results in
  let cfg = R2c_core.Dconfig.full () in
  let machines = R2c_machine.Cost.all_machines in
  let benchmarks = R2c_workloads.Spec.all () in
  let overheads =
    Parallel.map ?jobs
      (fun ((profile : R2c_machine.Cost.profile), (b : R2c_workloads.Spec.benchmark)) ->
        Measure.overhead ~profile ~seeds cfg b.program)
      (List.concat_map (fun profile -> List.map (fun b -> (profile, b)) benchmarks) machines)
  in
  let nb = List.length benchmarks in
  let columns = List.mapi (fun i _ -> List.filteri (fun j _ -> j / nb = i) overheads) machines in
  let overhead r = pct (r -. 1.0) in
  let rows =
    List.mapi
      (fun j (b : R2c_workloads.Spec.benchmark) ->
        (Str b.name :: List.map (fun c -> overhead (List.nth c j)) columns)
        @ [ Str (bar 24 (List.nth (List.hd columns) j)) ])
      benchmarks
  in
  let geo_row =
    (Str "geomean" :: List.map (fun c -> overhead (Stats.geomean c)) columns) @ [ Str "" ]
  in
  let lo, hi = Paper.figure6_geomean_range in
  [
    table "benchmarks" ~title:"Figure 6: full R2C overhead per machine"
      ((left "benchmark" "benchmark"
       :: List.map (fun { R2c_machine.Cost.name; _ } -> col name name) machines)
      @ [ left ~kind:Text "bars" "bars (i9)" ])
      (rows @ [ geo_row ]);
    Note
      (Printf.sprintf "paper: geomean %.1f%% - %.1f%% across machines; worst case %s at %.0f%%"
         ((lo -. 1.0) *. 100.0)
         ((hi -. 1.0) *. 100.0)
         (fst Paper.figure6_worst)
         ((snd Paper.figure6_worst -. 1.0) *. 100.0));
  ]
