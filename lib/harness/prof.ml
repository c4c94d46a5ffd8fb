module Obs = R2c_obs
module Pool = R2c_runtime.Pool
module Policy = R2c_runtime.Policy
module Vulnapp = R2c_workloads.Vulnapp
module Table = R2c_util.Table

type side = { label : string; stats : Measure.stats; prof : Obs.Profile.t }

type result = {
  workload : string;
  cfg_name : string;
  base : side;
  r2c : side;
  sink : Obs.Sink.t;
}

let run ?(cfg = R2c_core.Dconfig.full ()) ?(cfg_name = "full") ?(seed = 1) ?profile
    ~workload () =
  let b = R2c_workloads.Spec.find workload in
  let sink = Obs.Sink.create () in
  let base_stats =
    Measure.run ?profile ~obs:sink ~label:"baseline"
      (R2c_compiler.Driver.compile b.R2c_workloads.Spec.program)
  in
  let r2c_stats =
    Measure.run ?profile ~obs:sink ~label:cfg_name
      (R2c_core.Pipeline.compile ~seed cfg b.R2c_workloads.Spec.program)
  in
  let prof_of label =
    match Obs.Sink.profile sink label with
    | Some p -> p
    | None -> invalid_arg ("Prof.run: no profile stored under " ^ label)
  in
  {
    workload;
    cfg_name;
    base = { label = "baseline"; stats = base_stats; prof = prof_of "baseline" };
    r2c = { label = cfg_name; stats = r2c_stats; prof = prof_of cfg_name };
    sink;
  }

(* The profiler's column sums must reproduce the CPU's own counters: insn
   and miss counts exactly, cycles up to float-summation noise. *)
let side_sums_ok ?(tol = 0.01) s =
  let t = Obs.Profile.total s.prof in
  let cycles_ok =
    let c = s.stats.Measure.total_cycles in
    if c = 0.0 then t.Obs.Profile.cycles = 0.0
    else abs_float (t.Obs.Profile.cycles -. c) /. c <= tol
  in
  cycles_ok
  && t.Obs.Profile.insns = s.stats.Measure.insns
  && t.Obs.Profile.misses = s.stats.Measure.icache_misses

let sums_ok ?tol r = side_sums_ok ?tol r.base && side_sums_ok ?tol r.r2c

(* Text only: the [det] half of the profile entry is the pool-timeline
   summary the registry assembles. *)
let results ?(top = 12) r =
  let open Results in
  let f0 x = Float (Printf.sprintf "%.0f", x) in
  let base_rows = Obs.Profile.rows r.base.prof in
  let base_cycles name =
    match List.find_opt (fun (x : Obs.Profile.row) -> x.name = name) base_rows with
    | Some x -> x.Obs.Profile.cycles
    | None -> 0.0
  in
  let row name b (x : Obs.Profile.row) =
    let c = x.Obs.Profile.cycles in
    [
      Str name; f0 b; f0 c; (if b > 0.0 then ratio (c /. b) else Missing); f0 x.callsite_cycles;
      f0 x.prologue_cycles; f0 x.icache_cycles;
      f0 (c -. x.callsite_cycles -. x.prologue_cycles -. x.icache_cycles);
    ]
  in
  let bt = Obs.Profile.total r.base.prof in
  let rt = Obs.Profile.total r.r2c.prof in
  let rows =
    List.filteri (fun i _ -> i < top) (Obs.Profile.rows r.r2c.prof)
    |> List.map (fun (x : Obs.Profile.row) ->
           row x.Obs.Profile.name (base_cycles x.Obs.Profile.name) x)
  in
  let shown key header = col ~kind:Text key header in
  let extra = rt.Obs.Profile.cycles -. bt.Obs.Profile.cycles in
  table "functions"
    ~title:(Printf.sprintf "profile: %s — baseline vs %s (cycles)" r.workload r.cfg_name)
    [
      left ~kind:Text "function" "function"; shown "base" "base"; shown "r2c" r.cfg_name;
      shown "ratio" "ratio"; shown "callsite" "callsite"; shown "prologue" "prologue";
      shown "icache" "icache"; shown "other" "other";
    ]
    (rows @ [ row "TOTAL" bt.Obs.Profile.cycles rt ])
  :: (if extra > 0.0 then
        [
          Note
            (Printf.sprintf
               "overhead split: +%.0f cycles total — callsite %s, prologue %s, icache %s of the \
                added cost"
               extra
               (Table.pct (rt.Obs.Profile.callsite_cycles /. extra))
               (Table.pct (rt.Obs.Profile.prologue_cycles /. extra))
               (Table.pct
                  ((rt.Obs.Profile.icache_cycles -. bt.Obs.Profile.icache_cycles) /. extra)));
        ]
      else [])
  @ [
      Note
        (Printf.sprintf "icache: baseline %d/%d misses, %s %d/%d; peak call depth: %d -> %d\n"
           r.base.stats.Measure.icache_misses r.base.stats.Measure.icache_accesses r.cfg_name
           r.r2c.stats.Measure.icache_misses r.r2c.stats.Measure.icache_accesses
           r.base.stats.Measure.peak_depth r.r2c.stats.Measure.peak_depth);
    ]

(* ------------------------------------------------------------------ *)
(* A small observed pool run for the timeline export: the chaos victim
   serving mostly legitimate traffic with a periodic stack smash mixed
   in, so the trace shows requests, crashes, detections, respawns and
   (once the threshold trips) the reactive escalation. *)

let victim_cfg = { (R2c_core.Dconfig.full_checked) with R2c_core.Dconfig.aslr = false }

let pool_timeline ?(requests = 60) ?(seed = 7) () =
  let sink = Obs.Sink.create () in
  let cfg =
    {
      Pool.default_config with
      Pool.policy = Policy.Reactive Policy.Escalate_rerandomize;
      seed;
    }
  in
  let pool =
    Pool.create ~cfg ~obs:sink
      ~build:(fun ~seed -> Vulnapp.build ~seed victim_cfg)
      ~break_sym:Vulnapp.break_symbol ()
  in
  let payloads =
    List.init requests (fun i ->
        if i mod 7 = 3 then String.make 120 'A' else "GET /status")
  in
  ignore (Pool.run pool payloads);
  (sink, Pool.stats pool)
