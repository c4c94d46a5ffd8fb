(* r2c-experiments: one subcommand per entry of the experiment registry
   (R2c_harness.Experiment.all), plus [all], [check] and [determinism]
   over that same list. *)

open Cmdliner
module E = R2c_harness.Experiment
module J = R2c_obs.Json

let jobs =
  let doc =
    "Domain-pool width (0 = auto: \\$R2C_JOBS or the recommended domain count; 1 = \
     serial). The deterministic half of every report is identical at any width."
  in
  Term.(
    const (fun j -> if j > 0 then Some j else None)
    $ Arg.(value & opt int 0 & info [ "jobs" ] ~docv:"N" ~doc))

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE" ~doc:"Also write the one-line report JSON to FILE.")

(* Print a report and its one-line JSON (also to [json_out]); return its
   findings, which also go to stderr. *)
let emit ?json_out name (r : E.report) =
  print_string (R2c_harness.Results.text r.E.results);
  let line = J.to_string (E.to_json name r) in
  print_endline line;
  Option.iter
    (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc (line ^ "\n")))
    json_out;
  prerr_string (E.findings_to_string r.findings);
  r.findings

let exit_code = function
  | [] -> 0
  | findings ->
      Printf.eprintf "%d finding(s)\n" (List.length findings);
      1

let experiment_cmd (E.Experiment { name; doc; _ } as e) =
  let run jobs json_out go = exit_code (emit ?json_out name (go ~jobs)) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ jobs $ json_out $ E.command e)

let run_all ?jobs ~json_out entries =
  exit_code
    (List.concat_map
       (fun e ->
         let name = E.name e in
         Printf.printf "\n######## %s ########\n%!" name;
         emit ?json_out:(json_out name) name (E.run ?jobs e))
       entries)

let all_cmd =
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every experiment at its defaults; exit nonzero on any finding.")
    Term.(const (fun jobs -> run_all ?jobs ~json_out:(fun _ -> None) E.all) $ jobs)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the gate experiments $(b,make check) runs, writing each report to \
          NAME_out.json; exit nonzero on any finding.")
    Term.(
      const (fun jobs ->
          run_all ?jobs
            ~json_out:(fun name -> Some (name ^ "_out.json"))
            (List.filter (fun (E.Experiment { check; _ }) -> check) E.all))
      $ jobs)

(* Run an entry at jobs=1 and jobs=8 in-process; its deterministic half
   must come out byte for byte the same. *)
let determinism_cmd =
  let entry =
    Arg.(
      value
      & pos 0 (some (enum (List.map (fun e -> (E.name e, e)) E.all))) None
      & info [] ~docv:"NAME" ~doc:"Experiment to compare (default: every check experiment).")
  in
  let run entry =
    let entries =
      match entry with
      | Some e -> [ e ]
      | None -> List.filter (fun (E.Experiment { check; _ }) -> check) E.all
    in
    exit_code
      (List.concat_map
         (fun e ->
           let name = E.name e in
           let det jobs = J.to_string (E.det (E.run ~jobs e)) in
           let serial = det 1 and parallel = det 8 in
           Printf.printf "%s: det %s at jobs=1 and jobs=8 (%d bytes)\n%!" name
             (if serial = parallel then "identical" else "DIFFERS")
             (String.length serial);
           if serial = parallel then []
           else E.findings name [ ("determinism", "det differs between jobs=1 and jobs=8") ])
         entries)
  in
  Cmd.v
    (Cmd.info "determinism"
       ~doc:"Compare an experiment's deterministic report at jobs=1 and jobs=8.")
    Term.(const run $ entry)

let () =
  let doc = "Reproduce the R2C paper's evaluation tables and figures." in
  let info = Cmd.info "r2c-experiments" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          (List.map experiment_cmd E.all @ [ all_cmd; check_cmd; determinism_cmd ])))
