module Fleetapp = R2c_workloads.Fleetapp
module Genprog = R2c_workloads.Genprog
module Trace = R2c_replay.Trace
module Record = R2c_replay.Record
module Reduce = R2c_replay.Reduce
module Replayer = R2c_replay.Replayer
module Parallel = R2c_util.Parallel

type case = {
  c_name : string;
  c_meta : Trace.meta;
  c_program : Ir.program;
  c_inputs : string list;
}

(* Periodic request traffic with a small URL alphabet: half the server's
   loop bound, so the capture also records the empty-queue reads of the
   drained tail — exactly the chatter reduction should throw away. *)
let fleet_requests = 2048
let fleet_distinct = 32

let cases () =
  [
    {
      c_name = "fleetapp";
      c_meta =
        {
          Trace.workload = "fleetapp";
          config = "full-checked";
          seed = 7;
          machine = "EPYC Rome";
          fuel = 50_000_000;
        };
      c_program = Fleetapp.program ();
      c_inputs =
        List.init fleet_requests (fun i ->
            "GET /item/" ^ string_of_int (i mod fleet_distinct));
    };
    {
      c_name = "genprog";
      c_meta =
        {
          Trace.workload = "genprog";
          config = "full";
          seed = 5;
          machine = "EPYC Rome";
          fuel = 50_000_000;
        };
      c_program = Genprog.generate ~seed:13 ~funcs:24;
      c_inputs = [];
    };
  ]

type case_report = {
  cr_name : string;
  cr_trace : Trace.t;
  cr_reduce : Reduce.report;
  cr_replay : Replayer.run;
  cr_failures : string list;
}

type report = { case_reports : case_report list }

let run_case ?tolerance ?max_checks c =
  match
    Record.capture ~fuel:c.c_meta.Trace.fuel ~meta:c.c_meta
      ~program:c.c_program ~inputs:c.c_inputs ()
  with
  | Error e -> Error (c.c_name ^ ": " ^ e)
  | Ok raw -> (
      let reduced, rr = Reduce.run ?max_checks ?tolerance raw in
      match Replayer.check ?tolerance reduced with
      | Error e -> Error (c.c_name ^ ": " ^ e)
      | Ok v ->
          Ok
            {
              cr_name = c.c_name;
              cr_trace = reduced;
              cr_reduce = rr;
              cr_replay = v.Replayer.result;
              cr_failures = v.Replayer.failures;
            })

let run ?tolerance ?max_checks ?jobs () =
  let results =
    Parallel.map ?jobs (run_case ?tolerance ?max_checks) (cases ())
  in
  let errs =
    List.filter_map (function Error e -> Some e | Ok _ -> None) results
  in
  if errs <> [] then Error (String.concat "; " errs)
  else
    Ok
      {
        case_reports =
          List.filter_map (function Ok r -> Some r | Error _ -> None) results;
      }

let gate ?(min_reduction = 0.30) r =
  List.concat_map
    (fun cr ->
      let fidelity =
        List.map (fun f -> ("fidelity", cr.cr_name ^ ": replay fidelity: " ^ f)) cr.cr_failures
      in
      let reduction =
        (* The ratio gate only binds where there is traffic to reduce:
           an inputless case has a tiny raw trace to begin with. *)
        if cr.cr_reduce.Reduce.raw_spans > 0 && Trace.feeds cr.cr_trace <> []
           && Reduce.ratio cr.cr_reduce < min_reduction
        then
          [
            ( "reduction",
              Printf.sprintf "%s: reduction %.1f%% below %.0f%% floor" cr.cr_name
                (100. *. Reduce.ratio cr.cr_reduce)
                (100. *. min_reduction) );
          ]
        else []
      in
      fidelity @ reduction)
    r.case_reports

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let save_corpus ~dir r =
  match
    mkdir_p dir;
    List.map
      (fun cr ->
        let path = Filename.concat dir (cr.cr_name ^ ".r2cr") in
        Trace.save ~path cr.cr_trace;
        path)
      r.case_reports
  with
  | paths -> Ok paths
  | exception Sys_error e -> Error e

let results r =
  let open Results in
  let reduce (x : Reduce.report) =
    Record
      [
        ("raw_bytes", Int x.Reduce.raw_bytes);
        ("reduced_bytes", Int x.Reduce.reduced_bytes);
        ("reduction", pct (Reduce.ratio x));
        ("raw_spans", Int x.Reduce.raw_spans);
        ("reduced_spans", Int x.Reduce.reduced_spans);
        ("oracle_checks", Int x.Reduce.checks);
        ("edits_kept", Int x.Reduce.kept);
      ]
  in
  let replay (x : Replayer.run) =
    Record
      [
        ("cycles", Float (Printf.sprintf "%.0f", x.Replayer.r_cycles));
        ("insns", Int x.Replayer.r_insns);
        ("icache_accesses", Int x.Replayer.r_accesses);
        ("icache_misses", Int x.Replayer.r_misses);
        ("exit", Int x.Replayer.r_exit);
        ("output_len", Int x.Replayer.r_output_len);
        ("output_hash", Str (Printf.sprintf "%016Lx" x.Replayer.r_output_hash));
      ]
  in
  [
    Note "E-REPLAY: record / reduce / replay with profile-fidelity gates";
    field "experiment" (Str "replay");
    table "cases" ~title:"replay cases (reduced trace, final replay)"
      [
        left "name" "name"; left "config" "config"; col "seed" "seed"; left "reduce" "reduce";
        left "replay" "replay"; left "fidelity" "fidelity"; left ~kind:Text "failures" "failures";
      ]
      (List.map
         (fun cr ->
           let meta = cr.cr_trace.Trace.meta in
           [
             Str cr.cr_name; Str meta.Trace.config; Int meta.Trace.seed; reduce cr.cr_reduce;
             replay cr.cr_replay; Str (if cr.cr_failures = [] then "pass" else "fail");
             Strs cr.cr_failures;
           ])
         r.case_reports);
    field "gate" (Str (if gate r = [] then "pass" else "fail"));
  ]
