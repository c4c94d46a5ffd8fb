module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
module Reference = R2c_attacks.Reference
module Report = R2c_attacks.Report
module Vulnapp = R2c_workloads.Vulnapp
module Rng = R2c_util.Rng
module Stats = R2c_util.Stats

type cell = {
  attack : string;
  trials : int;
  successes : int;
  detections : int;
}

type row = {
  defense : string;
  measured_overhead : float option;
  icache_miss_pct : float option;
  peak_depth : int option;
  paper_overhead : string;
  cpp : bool;
  cells : cell list;
}

let scenario (d : Defenses.t) ~seed =
  let target_img = Defenses.build_vulnapp d ~seed in
  let reference = Reference.measure (Defenses.build_vulnapp d ~seed:(seed + 1000)) in
  let relink =
    if d.Defenses.rerandomize then begin
      let counter = ref 0 in
      Some
        (fun () ->
          incr counter;
          Defenses.build_vulnapp d ~seed:(seed + (7777 * !counter)))
    end
    else None
  in
  (reference, Oracle.attach ?relink ~break_sym:Vulnapp.break_symbol target_img)

let attacks : (string * (Defenses.t -> seed:int -> Report.t)) list =
  [
    ( "ROP",
      fun d ~seed ->
        let reference, target = scenario d ~seed in
        R2c_attacks.Rop.run ~reference ~target );
    ( "JIT-ROP",
      fun d ~seed ->
        let reference, target = scenario d ~seed in
        R2c_attacks.Jitrop.run ~reference ~target );
    ( "PIROP",
      fun d ~seed ->
        let reference, target = scenario d ~seed in
        R2c_attacks.Pirop.run ~reference ~target () );
    ( "AOCR",
      fun d ~seed ->
        let reference, target = scenario d ~seed in
        R2c_attacks.Aocr.run ~rng:(Rng.create (seed * 977)) ~reference ~target () );
  ]

(* A small SPEC subset keeps the overhead column affordable. *)
let overhead_subset = [ "perlbench"; "mcf"; "omnetpp"; "x264" ]

(* Geomean overhead plus the satellite columns: icache miss rate and peak
   call depth of the *defended* builds, aggregated over the subset. *)
let measure_overhead (d : Defenses.t) =
  let measurements =
    List.map
      (fun name ->
        let b = R2c_workloads.Spec.find name in
        let base =
          (Measure.run (R2c_compiler.Driver.compile b.program)).Measure.steady_cycles
        in
        let img = Defenses.build d ~seed:9 ~extra_raw:[] b.program in
        let s = Measure.run img in
        (s.Measure.steady_cycles /. base, s))
      overhead_subset
  in
  let ratios = List.map fst measurements in
  let accesses =
    List.fold_left (fun a (_, s) -> a + s.Measure.icache_accesses) 0 measurements
  in
  let misses =
    List.fold_left (fun a (_, s) -> a + s.Measure.icache_misses) 0 measurements
  in
  let depth =
    List.fold_left (fun a (_, s) -> max a s.Measure.peak_depth) 0 measurements
  in
  let miss_pct =
    if accesses = 0 then 0.0 else float_of_int misses /. float_of_int accesses
  in
  (Stats.geomean ratios, miss_pct, depth)

let run ?(trials = 3) ?(with_overhead = true) () =
  List.map
    (fun (d : Defenses.t) ->
      let cells =
        List.map
          (fun (attack, f) ->
            let reports = List.init trials (fun i -> f d ~seed:((i * 13) + 2)) in
            {
              attack;
              trials;
              successes =
                List.length (List.filter (fun r -> r.Report.success) reports);
              detections =
                List.length (List.filter (fun r -> r.Report.detected) reports);
            })
          attacks
      in
      let measured =
        if with_overhead then Some (measure_overhead d) else None
      in
      {
        defense = d.Defenses.name;
        measured_overhead = Option.map (fun (o, _, _) -> o) measured;
        icache_miss_pct = Option.map (fun (_, m, _) -> m) measured;
        peak_depth = Option.map (fun (_, _, dep) -> dep) measured;
        paper_overhead = d.Defenses.paper_overhead;
        cpp = d.Defenses.cpp_support;
        cells;
      })
    Defenses.all

let glyph c =
  if c.successes = 0 then "#"  (* protected *)
  else if c.successes >= (c.trials + 1) / 2 then "o"  (* broken *)
  else "+" (* partial *)

let gate rows =
  let fell name =
    List.find_opt (fun r -> r.defense = name) rows
    |> Option.map (fun r -> List.exists (fun c -> c.successes > 0) r.cells)
  in
  Gate.failed
    [
      ("r2c-holds", "an attack breached the R2C row (or it is missing)", fell "R2C" = Some false);
      ( "baseline-falls",
        "no attack beat the unprotected baseline (or it is missing)",
        fell "unprotected" = Some true );
    ]

let results rows =
  let open Results in
  [
    table "defenses"
      ~title:"Table 3: defense comparison (# = stopped every trial, o = broken, + = partial)"
      ([
         left "defense" "defense"; left "overhead" "overhead"; left "paper_overhead" "paper";
         left "icache_miss" "icache"; left "peak_depth" "depth"; left "cpp" "C++";
       ]
      @ List.map (fun (a, _) -> left a a) attacks
      @ [ left "detections" "detections" ])
      (List.map
         (fun r ->
           [
             Str r.defense;
             opt (fun o -> pct (o -. 1.0)) r.measured_overhead;
             Str r.paper_overhead;
             opt pct r.icache_miss_pct;
             opt (fun d -> Int d) r.peak_depth;
             Str (if r.cpp then "yes" else "no");
           ]
           @ List.map (fun c -> Str (glyph c)) r.cells
           @ [ Str (String.concat "/" (List.map (fun c -> string_of_int c.detections) r.cells)) ])
         rows);
  ]
