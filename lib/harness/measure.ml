open R2c_machine
module Stats = R2c_util.Stats
module Obs = R2c_obs

type stats = {
  total_cycles : float;
  steady_cycles : float;
  calls : int;
  insns : int;
  maxrss_bytes : int;
  icache_accesses : int;
  icache_misses : int;
  peak_depth : int;
}

let run ?(profile = Cost.epyc_rome) ?obs ?(label = "measure") img =
  let p = Process.start ~profile img in
  let prof =
    match obs with
    | None -> None
    | Some _ ->
        let pr = Obs.Profile.create ~profile img in
        Obs.Profile.attach pr p.Process.cpu;
        Some pr
  in
  let main_addr = Image.symbol img "main" in
  (match Process.run_until p ~break:[ main_addr ] with
  | `Hit -> ()
  | `Done o -> failwith ("Measure.run: never reached main: " ^ Process.outcome_to_string o));
  let at_main = Process.cycles p in
  match Process.run p with
  | Process.Exited 0 ->
      (match (obs, prof) with
      | Some sink, Some pr ->
          Obs.Sink.add_profile sink label pr;
          Obs.Profile.publish pr ~prefix:label sink.Obs.Sink.metrics;
          Obs.Events.complete ~cat:"measure"
            ~args:
              [
                ("insns", string_of_int (Process.insns p));
                ("icache_misses", string_of_int (Process.icache_misses p));
              ]
            sink.Obs.Sink.events ~name:label ~ts:0
            ~dur:(int_of_float (Process.cycles p))
      | _ -> ());
      {
        total_cycles = Process.cycles p;
        steady_cycles = Process.cycles p -. at_main;
        calls = Process.calls p;
        insns = Process.insns p;
        maxrss_bytes = Process.maxrss_bytes p;
        icache_accesses = Process.icache_accesses p;
        icache_misses = Process.icache_misses p;
        peak_depth = Process.max_depth p;
      }
  | o -> failwith ("Measure.run: " ^ Process.outcome_to_string o)

(* Keyed by the profile's name and the program's structure: callers such as
   [Spec.all] rebuild equal programs on every call. *)
type baselines = (string * Ir.program, stats) Hashtbl.t

let baselines () = Hashtbl.create 16

let baseline ?(profile = Cost.epyc_rome) bs program =
  let key = (profile.Cost.name, program) in
  match Hashtbl.find_opt bs key with
  | Some s -> s
  | None ->
      let s = run ~profile (R2c_compiler.Driver.compile program) in
      Hashtbl.replace bs key s;
      s

let ratio ?profile bs program s = s.steady_cycles /. (baseline ?profile bs program).steady_cycles

let overhead ?profile ?(baselines = baselines ()) ~seeds cfg program =
  Stats.median
    (List.map
       (fun seed ->
         let img = R2c_core.Pipeline.compile ~seed cfg program in
         ratio ?profile baselines program (run ?profile img))
       seeds)

let suite_overheads ?profile ~baselines ~seeds cfg =
  List.map
    (fun (b : R2c_workloads.Spec.benchmark) ->
      (b.name, overhead ?profile ~baselines ~seeds cfg b.program))
    (R2c_workloads.Spec.all ())

let geomean_max rows =
  let values = List.map snd rows in
  (Stats.maximum values, Stats.geomean values)
