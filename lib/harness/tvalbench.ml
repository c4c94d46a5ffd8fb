module Tval = R2c_analysis.Tval
module Lint = R2c_analysis.Lint
module Oracle = R2c_fuzz.Oracle
module Parallel = R2c_util.Parallel

type point = {
  pname : string;
  pfuncs : int;
  pblocks : int;
  pfindings : string list;
}

type workload = {
  wname : string;
  ir_findings : string list;
  points : point list;
}

type plant = { plname : string; plpoint : string; caught : int }

type replay = { rpath : string; rerrors : string list (* parse/validate/tval failures *) }

type report = {
  seed : int;
  workloads : workload list;
  plants : plant list;
  corpus : replay list;
}

let plant_name = function
  | Oracle.Sub_to_add -> "sub-to-add"
  | Oracle.Drop_stores -> "drop-stores"
  | Oracle.Off_by_one -> "off-by-one"

let all_plants = [ Oracle.Sub_to_add; Oracle.Drop_stores; Oracle.Off_by_one ]

let validate_point ~seed cfg p =
  let r = Tval.validate_config ~seed cfg p in
  ( r.Tval.funcs,
    r.Tval.blocks,
    List.map Tval.finding_to_string r.Tval.findings )

(* Compile the planted miscompile, then validate its image against the
   *unplanted* IR: every finding is the validator statically catching the
   plant. The instrumented program keeps the planted compile's extra
   functions (BTDP constructor) — those are not planted and must rejoin. *)
let validate_plant ~seed cfg pl p =
  let planted = Oracle.apply_plant pl p in
  let img, meta, p' = R2c_core.Pipeline.compile_with_meta ~seed cfg planted in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        match Ir.find_func p f.Ir.name with Some o -> o | None -> f)
      p'.Ir.funcs
  in
  let r = Tval.validate ~img ~meta { p' with Ir.funcs } in
  List.length r.Tval.findings

let replay_one ~seed path =
  match R2c_fuzz.Corpus.load path with
  | Error e -> { rpath = path; rerrors = [ "parse: " ^ e ] }
  | Ok p -> (
      match Validate.check p with
      | _ :: _ as errs ->
          { rpath = path;
            rerrors = List.map (fun e -> "validate: " ^ Validate.error_to_string e) errs }
      | [] ->
          let _, _, findings = validate_point ~seed (R2c_core.Dconfig.full ()) p in
          { rpath = path; rerrors = findings })

let run ?(seed = 3) ?jobs ?(corpus_dir = "test/corpus") () =
  let programs = Audit.ir_programs () in
  let matrix = Oracle.matrix in
  (* One unit per workload x matrix point, flattened so the Domain pool
     stays saturated; Parallel.map preserves order, so regrouping by
     workload is positional. *)
  let units =
    List.concat_map
      (fun (wname, p) -> List.map (fun (pname, cfg) -> (wname, p, pname, cfg)) matrix)
      programs
  in
  let point_results =
    Parallel.map ?jobs
      (fun (_, p, pname, cfg) ->
        let pfuncs, pblocks, pfindings = validate_point ~seed cfg p in
        { pname; pfuncs; pblocks; pfindings })
      units
  in
  let ir_results =
    Parallel.map ?jobs
      (fun (_, p) -> List.map Lint.ir_finding_to_string (Lint.run_ir p))
      programs
  in
  let npoints = List.length matrix in
  let workloads =
    List.mapi
      (fun i (wname, _) ->
        let points =
          List.filteri
            (fun j _ -> j / npoints = i)
            point_results
        in
        { wname; ir_findings = List.nth ir_results i; points })
      programs
  in
  let plant_prog = R2c_fuzz.Gen.v2 ~seed:1 () in
  let plant_points =
    [ ("baseline", R2c_core.Dconfig.baseline); ("full", R2c_core.Dconfig.full ()) ]
  in
  let plants =
    Parallel.map ?jobs
      (fun (pl, (plpoint, cfg)) ->
        { plname = plant_name pl;
          plpoint;
          caught = validate_plant ~seed cfg pl plant_prog })
      (List.concat_map (fun pl -> List.map (fun pt -> (pl, pt)) plant_points) all_plants)
  in
  let corpus =
    Parallel.map ?jobs (replay_one ~seed) (R2c_fuzz.Corpus.files ~dir:corpus_dir)
  in
  { seed; workloads; plants; corpus }

(* (funcs, blocks, validator findings, IR findings) of one workload. *)
let workload_totals w =
  List.fold_left
    (fun (f, b, fd, ir) pt -> (f + pt.pfuncs, b + pt.pblocks, fd + List.length pt.pfindings, ir))
    (0, 0, 0, List.length w.ir_findings)
    w.points

let totals r =
  List.fold_left
    (fun (funcs, blocks, findings, ir) w ->
      let f, b, fd, i = workload_totals w in
      (funcs + f, blocks + b, findings + fd, ir + i))
    (0, 0, 0, 0) r.workloads

let min_workloads = 17
let min_points = 11

let gate r =
  let fails = ref [] in
  let check ok what msg = if not ok then fails := (what, msg) :: !fails in
  let _, _, findings, ir = totals r in
  check
    (List.length r.workloads >= min_workloads)
    "coverage"
    (Printf.sprintf "workloads %d < %d" (List.length r.workloads) min_workloads);
  List.iter
    (fun w ->
      check
        (List.length w.points >= min_points)
        "coverage"
        (Printf.sprintf "%s: points %d < %d" w.wname (List.length w.points) min_points))
    r.workloads;
  check (findings = 0) "tval" (Printf.sprintf "validator findings %d <> 0" findings);
  check (ir = 0) "ir-lint" (Printf.sprintf "IR lint findings %d <> 0" ir);
  List.iter
    (fun pl ->
      check (pl.caught > 0) "plant"
        (Printf.sprintf "plant %s uncaught under %s" pl.plname pl.plpoint))
    r.plants;
  List.iter
    (fun rp ->
      check (rp.rerrors = []) "corpus"
        (Printf.sprintf "corpus %s: %d error(s)" rp.rpath (List.length rp.rerrors)))
    r.corpus;
  List.rev !fails

let results r =
  let open Results in
  let funcs, blocks, findings, ir = totals r in
  let shown key header = col ~kind:Text key header in
  [
    field "seed" (Int r.seed);
    field "workloads" (Int (List.length r.workloads));
    field "points" (Int (match r.workloads with w :: _ -> List.length w.points | [] -> 0));
    table "per_workload" ~title:"E-TVAL: symbolic refinement per workload"
      [
        left ~kind:Text "workload" "workload"; shown "funcs" "funcs";
        shown "blocks" "blocks"; shown "tval" "tval"; shown "ir_lint" "ir lint";
      ]
      (List.map
         (fun w ->
           let f, b, fd, ir = workload_totals w in
           [ Str w.wname; Int f; Int b; Int fd; Int ir ])
         r.workloads);
  ]
  @ List.concat_map
      (fun w ->
        List.map (fun m -> Note (Printf.sprintf "  %s: %s" w.wname m)) w.ir_findings
        @ List.concat_map
            (fun pt ->
              List.map
                (fun m -> Note (Printf.sprintf "  %s/%s: %s" w.wname pt.pname m))
                pt.pfindings)
            w.points)
      r.workloads
  @ [
      field "validated_funcs" (Int funcs);
      field "validated_blocks" (Int blocks);
      field "findings" (Int findings);
      field "ir_findings" (Int ir);
      table "plants" ~title:"Planted miscompiles (must be caught statically)"
        [
          left "plant" "plant"; left "point" "config"; col "caught" "findings";
          left ~kind:Text "verdict" "verdict";
        ]
        (List.map
           (fun pl ->
             [ Str pl.plname; Str pl.plpoint; Int pl.caught;
               Str (if pl.caught > 0 then "caught" else "MISSED") ])
           r.plants);
      field "corpus_replayed" (Int (List.length r.corpus));
      field "corpus_failures"
        (Int (List.length (List.filter (fun rp -> rp.rerrors <> []) r.corpus)));
    ]
  @ List.concat_map
      (fun rp -> List.map (fun m -> Note (Printf.sprintf "  %s: %s" rp.rpath m)) rp.rerrors)
      r.corpus
  @ [ field "gate_failures" (Strs (List.map snd (gate r))) ]
