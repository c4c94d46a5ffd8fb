(* E-JIT: the three-lane comparison. Every SPEC-like workload, plus one
   wide Genprog program, under full R2C runs through the reference
   dispatch, tier 3 never compiling (the JIT switched off), and tier 3
   compiling (steady-state: the timed run reuses the code cache a warm-up
   run populated, exactly as another process of the image does),
   asserting bit-identical counters across all three and gating the
   tier-3 wall-clock win over the reference tier. An observed lane then
   runs each workload profiled on the reference tier and on tier 3 and
   requires bit-identical profiles. *)

module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Spec = R2c_workloads.Spec
module Genprog = R2c_workloads.Genprog
module Parallel = R2c_util.Parallel
open R2c_machine
module Profile = R2c_obs.Profile

type row = {
  name : string;
  insns : int;
  cycles_bits : int64;  (* exact: Int64.bits_of_float of the cycle total *)
  icache_misses : int;
  identical : bool;  (* all three lanes bit-identical on this workload *)
  profile_identical : bool;
      (* profiled tier 3 == profiled reference: rows, edges, total *)
  compiled : int;  (* functions compiled by the warm + timed runs *)
  entry_enters : int;
  osr_enters : int;
  deopts : int;
  tier3_insns : int;
  interp_insns : int;
}

type report = {
  seed : int;
  config : string;
  fuel : int;
  rows : row list;
  identical : bool;  (* every row identical, profiled and unprofiled *)
  compiled_total : int;
  osr_total : int;
  tier3_share : float;  (* fraction of JIT-run instructions retired in tier 3 *)
}

type timing = {
  ref_ms : float;
  fast_ms : float;
  jit_ms : float;
  speedup_fast : float;  (* reference / never-compiling tier 3 *)
  speedup_jit : float;  (* reference / tier-3 *)
  ref_obs_ms : float;  (* profiled reference tier *)
  jit_obs_ms : float;  (* profiled tier 3 *)
  speedup_obs : float;  (* profiled reference / profiled tier 3 *)
}

(* Everything the contract pins down: counters, architectural effects,
   and the run result. Cycles compared as IEEE bits — "close" is a bug. *)
type fingerprint = {
  fp_result : Cpu.run_result;
  fp_cycles : int64;
  fp_insns : int;
  fp_misses : int;
  fp_accesses : int;
  fp_max_depth : int;
  fp_exit : int;
  fp_out : string;
}

let fingerprint (c : Cpu.t) (r : Cpu.run_result) =
  {
    fp_result = r;
    fp_cycles = Int64.bits_of_float c.Cpu.cycles;
    fp_insns = c.Cpu.insns;
    fp_misses = Icache.misses c.Cpu.icache;
    fp_accesses = Icache.accesses c.Cpu.icache;
    fp_max_depth = c.Cpu.max_depth;
    fp_exit = c.Cpu.exit_code;
    fp_out = Cpu.output c;
  }

let now () = Unix.gettimeofday ()

let genprog_funcs = 300

let run ?(seed = 3) ?(config = "full") ?(fuel = 50_000_000) ?jobs () =
  let cfg =
    match Dconfig.of_name config with Ok c -> c | Error e -> invalid_arg ("jitbench: " ^ e)
  in
  (* The Spec set is deep and loop-heavy; the Genprog row is wide and
     call-heavy, each function short and warm — the shape of the paper's
     browser-scale programs, where compiles and transitions dominate. *)
  let benches =
    List.map (fun (b : Spec.benchmark) -> (b.Spec.name, b.Spec.program)) (Spec.all ())
    @ [ (Printf.sprintf "genprog%d" genprog_funcs, Genprog.generate ~seed ~funcs:genprog_funcs) ]
  in
  (* Image compilation fans out over the Domain pool; the measured runs
     below stay serial so the timings mean something. *)
  let images =
    Parallel.map ?jobs (fun (name, prog) -> (name, Pipeline.compile ~seed cfg prog)) benches
  in
  let settle () = Gc.full_major () in
  let profile = Cost.epyc_rome in
  let t_ref = ref 0.0 and t_fast = ref 0.0 and t_jit = ref 0.0 in
  let t_ref_obs = ref 0.0 and t_jit_obs = ref 0.0 in
  (* One profiled run: the profile's fingerprint and the CPU's. *)
  let profiled img ~jit ~clock run =
    settle ();
    let cpu = Loader.load ~jit:(Option.is_some jit) ?jit_cache:jit ~profile img in
    let pr = Profile.create ~profile img in
    Profile.attach pr cpu;
    let t0 = now () in
    let r = run cpu ~fuel in
    clock := !clock +. (now () -. t0);
    (Profile.fingerprint pr, fingerprint cpu r)
  in
  let rows =
    List.map
      (fun (name, img) ->
        (* A private cache, so each row starts cold whatever ran the image
           before; the warm-up and timed runs count into one record. *)
        let cache = Jit.create_cache ~profile img in
        let st = Jit.fresh_stats () in
        let load_jit () = Loader.load ~jit:true ~jit_cache:cache ~jit_stats:st ~profile img in
        (* Warm-up: populates the code cache (and the host's). The timed
           tier-3 leg below is the steady state another process of the
           image sees. *)
        ignore (Cpu.run (load_jit ()) ~fuel);
        settle ();
        let c_ref = Loader.load ~jit:false ~profile img in
        let t0 = now () in
        let r_ref = Cpu.run_reference c_ref ~fuel in
        t_ref := !t_ref +. (now () -. t0);
        let fp_ref = fingerprint c_ref r_ref in
        settle ();
        let c_fast = Loader.load ~jit:false ~profile img in
        let t0 = now () in
        let r_fast = Cpu.run c_fast ~fuel in
        t_fast := !t_fast +. (now () -. t0);
        let fp_fast = fingerprint c_fast r_fast in
        settle ();
        let c_jit = load_jit () in
        let t0 = now () in
        let r_jit = Cpu.run c_jit ~fuel in
        t_jit := !t_jit +. (now () -. t0);
        let fp_jit = fingerprint c_jit r_jit in
        let row =
          {
            name;
            insns = fp_jit.fp_insns;
            cycles_bits = fp_jit.fp_cycles;
            icache_misses = fp_jit.fp_misses;
            identical = fp_ref = fp_fast && fp_ref = fp_jit;
            profile_identical = false;
            compiled = st.Jit.compiled;
            entry_enters = st.Jit.entry_enters;
            osr_enters = st.Jit.osr_enters;
            deopts = st.Jit.deopts;
            tier3_insns = st.Jit.tier3_insns;
            interp_insns = st.Jit.interp_insns;
          }
        in
        (* The observed lane, after the stats snapshot: profiled runs
           leave the unprofiled report fields untouched. *)
        let p_ref, fpo_ref =
          profiled img ~jit:None ~clock:t_ref_obs (fun c ~fuel -> Cpu.run_reference c ~fuel)
        in
        let p_jit, fpo_jit =
          profiled img ~jit:(Some cache) ~clock:t_jit_obs (fun c ~fuel -> Cpu.run c ~fuel)
        in
        {
          row with
          profile_identical =
            String.equal p_ref p_jit && fpo_ref = fp_ref && fpo_jit = fp_ref;
        })
      images
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  let t3 = sum (fun r -> r.tier3_insns) and cold = sum (fun r -> r.interp_insns) in
  let report =
    {
      seed;
      config;
      fuel;
      rows;
      identical = List.for_all (fun (r : row) -> r.identical && r.profile_identical) rows;
      compiled_total = sum (fun r -> r.compiled);
      osr_total = sum (fun r -> r.osr_enters);
      tier3_share =
        (if t3 + cold = 0 then 0.0
         else float_of_int t3 /. float_of_int (t3 + cold));
    }
  in
  let ref_ms = !t_ref *. 1000.0
  and fast_ms = !t_fast *. 1000.0
  and jit_ms = !t_jit *. 1000.0
  and ref_obs_ms = !t_ref_obs *. 1000.0
  and jit_obs_ms = !t_jit_obs *. 1000.0 in
  let timing =
    {
      ref_ms;
      fast_ms;
      jit_ms;
      speedup_fast = (if fast_ms > 0.0 then ref_ms /. fast_ms else 0.0);
      speedup_jit = (if jit_ms > 0.0 then ref_ms /. jit_ms else 0.0);
      ref_obs_ms;
      jit_obs_ms;
      speedup_obs = (if jit_obs_ms > 0.0 then ref_obs_ms /. jit_obs_ms else 0.0);
    }
  in
  (report, timing)

(* The E-JIT gate: the deterministic half (three-way identity, real
   compilation, real OSR entries, tier-3 coverage) always binds; the
   timing floor binds when a timing is supplied. *)
let gate ?(min_speedup = 5.0) ?timing r =
  let checks =
    [
      ( "identity",
        "all three lanes bit-identical, and profiled tier 3 bit-identical to the \
         profiled reference tier, on every workload",
        r.identical );
      ( "compiled",
        "every workload compiled at least one hot function",
        List.for_all (fun row -> row.compiled > 0) r.rows );
      ("osr", "compiled code entered via OSR at least once", r.osr_total > 0);
      ( "coverage",
        Printf.sprintf "tier 3 retired >= 50%% of JIT-run instructions (got %.1f%%)"
          (100.0 *. r.tier3_share),
        r.tier3_share >= 0.5 );
    ]
    @
    match timing with
    | None -> []
    | Some t ->
        [
          ( "speedup",
            Printf.sprintf "tier 3 >= %.0fx over the reference tier (got %.2fx)"
              min_speedup t.speedup_jit,
            t.speedup_jit >= min_speedup );
        ]
  in
  Gate.failed checks

let results (r, t) =
  let open Results in
  let timed key v = field ~kind:Timed key (Float (Printf.sprintf "%.2f", v)) in
  [
    field "seed" (Int r.seed);
    field "config" (Str r.config);
    field "fuel" (Int r.fuel);
    field "identical" (Bool r.identical);
    field "compiled_total" (Int r.compiled_total);
    field "osr_total" (Int r.osr_total);
    field "tier3_share" (pct r.tier3_share);
    table "workloads" ~title:"E-JIT: three lanes per workload"
      [
        left "name" "workload"; col "insns" "insns"; left "cycles_bits" "cycles bits";
        col "icache_misses" "misses"; left "identical" "identical";
        left "profile_identical" "profile"; col "compiled" "compiled"; col "entry_enters" "entry";
        col "osr_enters" "osr"; col "deopts" "deopts"; col "tier3_insns" "tier3 insns";
        col "interp_insns" "interp insns"; col ~kind:Text "entries" "entries";
        col ~kind:Text "tier3" "tier3";
      ]
      (List.map
         (fun row ->
           let tot = row.tier3_insns + row.interp_insns in
           [
             Str row.name; Int row.insns; Str (Printf.sprintf "%016Lx" row.cycles_bits);
             Int row.icache_misses; Bool row.identical; Bool row.profile_identical;
             Int row.compiled; Int row.entry_enters; Int row.osr_enters; Int row.deopts;
             Int row.tier3_insns; Int row.interp_insns; Int (row.entry_enters + row.osr_enters);
             pct (if tot = 0 then 0.0 else float_of_int row.tier3_insns /. float_of_int tot);
           ])
         r.rows);
    timed "ref_ms" t.ref_ms;
    timed "fast_ms" t.fast_ms;
    timed "jit_ms" t.jit_ms;
    timed "speedup_fast" t.speedup_fast;
    timed "speedup_jit" t.speedup_jit;
    timed "ref_obs_ms" t.ref_obs_ms;
    timed "jit_obs_ms" t.jit_obs_ms;
    timed "speedup_obs" t.speedup_obs;
  ]
