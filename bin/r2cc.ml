(* r2cc: the R2C compiler driver for the bundled workloads.

   Compile a named workload under a chosen protection configuration, run it
   on a chosen machine profile, and report cycles / calls / memory — or dump
   the diversified assembly. *)

open Cmdliner
module Dconfig = R2c_core.Dconfig
open R2c_machine

let workloads () =
  List.map (fun (b : R2c_workloads.Spec.benchmark) -> (b.name, b.program))
    (R2c_workloads.Spec.all ())
  @ [
      ("nginx", R2c_workloads.Webserver.server `Nginx ~requests:400);
      ("apache", R2c_workloads.Webserver.server `Apache ~requests:400);
      ("vulnsrv", R2c_workloads.Vulnapp.program ());
    ]

(* --record: capture the run's builtin boundary into a standalone .r2cr
   benchmark (optionally delta-debugged first), then verify the artifact
   replays with the recorded profile before writing it. *)
let record_run ~name ~config ~seed ~(profile : Cost.profile) ~program ~inputs
    ~reduce path =
  let module RT = R2c_replay.Trace in
  let module RReduce = R2c_replay.Reduce in
  let module RReplayer = R2c_replay.Replayer in
  let meta =
    {
      RT.workload = Filename.remove_extension (Filename.basename name);
      config;
      seed;
      machine = profile.Cost.name;
      fuel = 50_000_000;
    }
  in
  match
    R2c_replay.Record.capture ~fuel:meta.RT.fuel ~meta ~program ~inputs ()
  with
  | Error e ->
      prerr_endline ("record: " ^ e);
      1
  | Ok raw -> (
      let t, note =
        if reduce then begin
          let t, r = RReduce.run raw in
          ( t,
            Printf.sprintf ", reduced %d -> %d bytes (%.1f%%)"
              r.RReduce.raw_bytes r.RReduce.reduced_bytes
              (100. *. RReduce.ratio r) )
        end
        else (raw, "")
      in
      match RReplayer.check t with
      | Error e ->
          prerr_endline ("record: replay check: " ^ e);
          1
      | Ok v ->
          RT.save ~path t;
          Printf.printf
            "recorded %s under %s (seed %d): %d span(s)%s -> %s; replay \
             fidelity %s\n"
            meta.RT.workload config seed (RT.span_count t) note path
            (if v.RReplayer.failures = [] then "pass" else "FAIL");
          if v.RReplayer.failures = [] then 0
          else begin
            List.iter prerr_endline v.RReplayer.failures;
            1
          end)

let run_workload name config profile seed dump emit_ir trace profiled lint tval
    record inputs reduce =
  let program =
    (* A path ending in .r2c is compiled from source; otherwise it names a
       bundled workload. *)
    if Filename.check_suffix name ".r2c" then begin
      let ic = open_in name in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      match Text.parse src with
      | Ok p -> (
          match Validate.check p with
          | [] -> p
          | errs ->
              failwith
                (String.concat "\n" (List.map Validate.error_to_string errs)))
      | Error e -> failwith (name ^ ": " ^ Text.error_to_string e)
    end
    else
      match List.assoc_opt name (workloads ()) with
      | Some p -> p
      | None ->
          failwith
            (Printf.sprintf "unknown workload %s (have: %s, or a .r2c file)" name
               (String.concat ", " (List.map fst (workloads ()))))
  in
  if emit_ir then begin
    print_string (Text.to_string program);
    exit 0
  end;
  let cfg = List.assoc config Dconfig.named in
  if tval then begin
    (* Static translation validation: the pipeline with lowering metadata,
       the symbolic per-block refinement check, and the IR lint pack. *)
    let module Tval = R2c_analysis.Tval in
    let module Lint = R2c_analysis.Lint in
    let img, meta, p' = R2c_core.Pipeline.compile_with_meta ~seed cfg program in
    let r = Tval.validate ~img ~meta p' in
    let ir_findings = Lint.run_ir program in
    Printf.printf
      "%s under %s (seed %d): %d function(s), %d block(s) validated; %d tval finding(s), \
       %d IR lint finding(s)\n"
      name config seed r.Tval.funcs r.Tval.blocks
      (List.length r.Tval.findings)
      (List.length ir_findings);
    List.iter (fun f -> print_endline ("  " ^ Tval.finding_to_string f)) r.Tval.findings;
    List.iter (fun f -> print_endline ("  " ^ Lint.ir_finding_to_string f)) ir_findings;
    exit (if r.Tval.findings = [] && ir_findings = [] then 0 else 1)
  end;
  (match record with
  | Some path ->
      exit (record_run ~name ~config ~seed ~profile ~program ~inputs ~reduce path)
  | None -> ());
  let img =
    if config = "baseline" then R2c_compiler.Driver.compile program
    else R2c_core.Pipeline.compile ~seed cfg program
  in
  if lint then begin
    let module Lint = R2c_analysis.Lint in
    let expect = Lint.expect_of_dconfig cfg in
    let findings = Lint.run ~expect img in
    let stats = R2c_analysis.Cfg.(stats (recover img)) in
    let gadgets = List.length (R2c_analysis.Gadget.scan img) in
    Printf.printf
      "%s under %s (seed %d): %d finding(s); cfg %d funcs / %d blocks / %d edges; %d \
       gadget(s)\n"
      name config seed (List.length findings) stats.R2c_analysis.Cfg.n_funcs
      stats.R2c_analysis.Cfg.n_blocks stats.R2c_analysis.Cfg.n_edges gadgets;
    List.iter (fun f -> print_endline ("  " ^ Lint.finding_to_string f)) findings;
    if findings = [] then 0 else 1
  end
  else if dump then begin
    Printf.printf "; %s under %s (seed %d)\n%s" name config seed (Dump.image img);
    0
  end
  else if trace then begin
    (* Traced run: keep the last instructions for a post-mortem view. *)
    let cpu = Loader.load ~profile img in
    let tr = Ring.create ~capacity:40 in
    Ring.attach tr cpu;
    let result = Cpu.run cpu ~fuel:50_000_000 in
    Printf.printf "--- output ---\n%s--- end ---\n" (Cpu.output cpu);
    (match result with
    | Cpu.Halted -> Printf.printf "exit: %d\n" cpu.Cpu.exit_code
    | Cpu.Fuel_exhausted -> print_endline "timeout"
    | Cpu.Faulted f -> Printf.printf "FAULT: %s\n" (Fault.to_string f));
    Printf.printf "last instructions:\n%s\n" (Ring.pp_tail tr ~n:24);
    0
  end
  else begin
    let p = Process.start ~profile img in
    let prof =
      if profiled then begin
        let pr = R2c_obs.Profile.create ~profile img in
        R2c_obs.Profile.attach pr p.Process.cpu;
        Some pr
      end
      else None
    in
    match Process.run p with
    | Process.Exited code ->
        Printf.printf "--- output ---\n%s--- end ---\n" (Process.output p);
        Printf.printf "exit: %d\n" code;
        Printf.printf "machine: %s, config: %s (%s), seed %d\n" profile.Cost.name config
          (Dconfig.describe cfg) seed;
        Printf.printf "instructions: %d\ncalls: %d\ncycles: %.0f\nmaxrss: %d KB\n"
          (Process.insns p) (Process.calls p) (Process.cycles p)
          (Process.maxrss_bytes p / 1024);
        Printf.printf "icache: %d misses / %d accesses; peak call depth: %d\n"
          (Process.icache_misses p) (Process.icache_accesses p) (Process.max_depth p);
        (match prof with
        | Some pr ->
            print_string
              (R2c_obs.Profile.report ~top:15
                 ~title:(Printf.sprintf "%s under %s (seed %d)" name config seed)
                 pr)
        | None -> ());
        if code = 0 then 0 else code
    | o ->
        Printf.printf "run failed: %s\n" (Process.outcome_to_string o);
        1
  end

let () =
  let workload =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (try: perlbench, nginx, vulnsrv).")
  in
  let config =
    Arg.(
      value
      & opt (enum (List.map (fun (n, _) -> (n, n)) Dconfig.named)) "full"
      & info [ "c"; "config" ] ~docv:"CONFIG"
          ~doc:("Protection: " ^ doc_alts (List.map fst Dconfig.named) ^ "."))
  in
  let machine =
    let profile = Arg.conv' (Cost.of_name, fun ppf p -> Format.pp_print_string ppf p.Cost.name) in
    Arg.(
      value & opt profile Cost.epyc_rome
      & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Cost profile: i9, epyc, tr, xeon.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Diversification seed.")
  in
  let dump =
    Arg.(value & flag & info [ "S"; "dump" ] ~doc:"Dump the diversified assembly and exit.")
  in
  let emit_ir =
    Arg.(value & flag & info [ "emit-ir" ] ~doc:"Print the workload as textual IR and exit.")
  in
  let trace =
    Arg.(value & flag & info [ "t"; "trace" ] ~doc:"Trace execution; print the final instructions.")
  in
  let profiled =
    Arg.(
      value & flag
      & info [ "p"; "profile" ]
          ~doc:"Attach the per-step profiler; print the top-functions table after the run.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the static invariant linter on the linked image instead of executing; \
             exit nonzero on findings.")
  in
  let tval =
    Arg.(
      value & flag
      & info [ "tval" ]
          ~doc:
            "Statically validate the translation instead of executing: symbolically \
             execute the diversified machine code of every basic block against the IR \
             semantics and run the IR dataflow lint; exit nonzero on findings.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE.r2cr"
          ~doc:
            "Record the run's builtin boundary (every intercepted call with \
             arguments, results and simulated-cycle timestamps) into a \
             standalone replay benchmark at $(docv), verified to reproduce the \
             recorded profile before it is written.")
  in
  let inputs =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"BYTES"
          ~doc:"Queue a read_input payload for a --record run (repeatable, in order).")
  in
  let reduce =
    Arg.(
      value & flag
      & info [ "reduce" ]
          ~doc:
            "Delta-debug the recorded trace before writing it: drop observational \
             spans, intern request payloads, collapse periodic loops — keeping \
             only edits the profile-fidelity oracle accepts.")
  in
  let doc = "Compile and run a bundled workload under R2C protection." in
  let cmd =
    Cmd.v (Cmd.info "r2cc" ~version:"1.0.0" ~doc)
      Term.(
        const run_workload $ workload $ config $ machine $ seed $ dump $ emit_ir $ trace
        $ profiled $ lint $ tval $ record $ inputs $ reduce)
  in
  exit (Cmd.eval' cmd)
