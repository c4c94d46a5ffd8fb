(* The three workloads. Each runs the whole user path — IR program →
   diversified image → link-seed rotations onto started processes →
   execution (default tier, then profiled) → requests served by a
   rerandomizing fleet under chaos → replay of the recorded corpus — on
   its own program set, and spends its measured seconds in different
   proportions, so each stresses different layers:

   - genprog-rerand: one seeded Genprog program of [genprog_funcs]
     functions under full R2C; compile, cache and load dominate.
   - spec-exec: the twelve Spec programs under full R2C; the CPU and JIT
     dominate, the profiled pass takes the observed dispatch path.
   - fleet-chaos: Fleetapp under full_checked; per-request Fleet/Pool/
     Process cost dominates and injection keeps the fleet on the
     reference tier, the workload that bypasses the JIT.

   Every measured operation calls a layer's public function; every output
   is checked against a reference the system did not produce ([Ir.Interp]
   outputs, cold-compile fingerprints, the CPU's own counters, recorded
   replay profiles). *)

module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Incremental = R2c_compiler.Incremental
module Emit = R2c_compiler.Emit
module Link = R2c_compiler.Link
module Asm = R2c_compiler.Asm
module Regalloc = R2c_compiler.Regalloc
module Mdesc = R2c_compiler.Mdesc
module Fleet = R2c_runtime.Fleet
module Pool = R2c_runtime.Pool
module Genprog = R2c_workloads.Genprog
module Spec = R2c_workloads.Spec
module Fleetapp = R2c_workloads.Fleetapp
module Profile = R2c_obs.Profile
module Replayer = R2c_replay.Replayer
module Rtrace = R2c_replay.Trace
module Rng = R2c_util.Rng
module Image = R2c_machine.Image
module Process = R2c_machine.Process
module Loader = R2c_machine.Loader
module Cpu = R2c_machine.Cpu
module Jit = R2c_machine.Jit
module Cost = R2c_machine.Cost
module Inject = R2c_machine.Inject

let genprog_funcs = 2000
let fleet_shards = 4
let fleet_payloads = 64

(* Chaos mix of the fleet phase: bit flips, corrupted loads and spurious
   faults at a quarter of the fleet campaign's light mix. Workers still
   crash and respawn onto rerandomized builds, while hedging and retries
   absorb every crash. *)
let chaos_rates =
  { Inject.bitflip = 0.0000025; load_corrupt = 0.0000025; spurious_fault = 0.00000125; fuel_cut = 0.0 }

(* Simulated cycles between fleet arrivals: twice the default spacing.
   At the default, a quarantine now and then piles the load onto the
   remaining shards until admission control sheds requests (3 of 30,000
   at seed 59, 2 at seed 73). At this spacing the deepest shard queue
   over 100,000 requests stayed at 13 of the bound of 32 on seeds
   50-79, so no request is shed. *)
let arrival_cycles = 2 * Fleet.default_config.Fleet.arrival_cycles

type stage = Compile | Rotate | Exec | Profiled | Serve

let stage_name = function
  | Compile -> "compile"
  | Rotate -> "rotate"
  | Exec -> "exec"
  | Profiled -> "profiled"
  | Serve -> "serve"

type workload = {
  name : string;
  why : string;
  cfg : Dconfig.t;
  programs : seed:int -> (string * Ir.program * string list) list;
  shares : (stage * float) list;  (** of the measured seconds, in stage order *)
}

let payload rng = Printf.sprintf "GET /item/%d" (Rng.int rng 100_000)

let workloads =
  [
    {
      name = "genprog-rerand";
      why =
        Printf.sprintf
          "one seeded %d-function Genprog program under full: compile, cache and load layers do \
           nearly all the work"
          genprog_funcs;
      cfg = Dconfig.full ();
      programs = (fun ~seed -> [ ("genprog", Genprog.generate ~seed ~funcs:genprog_funcs, []) ]);
      shares = [ (Compile, 0.30); (Rotate, 0.45); (Exec, 0.08); (Profiled, 0.07); (Serve, 0.10) ];
    };
    {
      name = "spec-exec";
      why = "the 12 Spec programs under full: the CPU and JIT layers do nearly all the work";
      cfg = Dconfig.full ();
      programs =
        (fun ~seed:_ -> List.map (fun (b : Spec.benchmark) -> (b.Spec.name, b.Spec.program, [])) (Spec.all ()));
      shares = [ (Compile, 0.05); (Rotate, 0.10); (Exec, 0.42); (Profiled, 0.33); (Serve, 0.10) ];
    };
    {
      name = "fleet-chaos";
      why =
        Printf.sprintf
          "Fleetapp under full_checked on %d shards with chaos: per-request fleet/pool cost \
           dominates and injection bypasses the JIT"
          fleet_shards;
      cfg = Dconfig.full_checked;
      programs =
        (fun ~seed ->
          let rng = Rng.create (seed + 0xfeed) in
          [ ("fleetapp", Fleetapp.program (), List.init fleet_payloads (fun _ -> payload rng)) ]);
      shares = [ (Compile, 0.05); (Rotate, 0.10); (Exec, 0.10); (Profiled, 0.12); (Serve, 0.63) ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)

let now = Span.now_ns
let since_ms t0 = Span.ms_between t0 (now ())

type unit_ = {
  uname : string;
  prog : Ir.program;
  input : string list;
  coords : Pipeline.coords;  (** base coordinates; rotations move [link_seed] *)
  rr : Pipeline.rerand;
  mutable link : int;
  mutable img : Image.t;  (** the latest rotated image *)
  mutable outputs : (int * string) list;  (** distinct (exit, output) observed *)
}

type state = {
  units : unit_ array;
  fleet : Fleet.t;
  builds : float list ref;  (** host ms of every fleet build *)
  build_lock : Mutex.t;
  payload_rng : Rng.t;
  warm_ms : float;
}

(* Counters of the whole run; every check and operation lands here. *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally = { attempted = 0; failed = 0; errors = [] }

let op ok = tally.attempted <- tally.attempted + 1; if not ok then tally.failed <- tally.failed + 1

let check what ok =
  op ok;
  if not ok then tally.errors <- what :: tally.errors

let coords_at u link = { u.coords with Pipeline.link_seed = Some link }

let setup (w : workload) ~seed ~width =
  Span.with_ ~structural:true "setup" (fun () ->
      let body_seed = 1 + (seed * 7919) in
      let base_link = 100 + (seed * 1000) in
      let t0 = now () in
      let units =
        List.map
          (fun (uname, prog, input) ->
            let coords = { Pipeline.cfg = w.cfg; body_seed; link_seed = Some base_link } in
            let rr = Pipeline.rerand_create () in
            let img, st =
              Span.with_ "compiler.incremental.warm" (fun () ->
                  Pipeline.compile_incremental ~jobs:width rr coords prog)
            in
            check (uname ^ ": warm build compiles every function") (st.Incremental.hits = 0);
            { uname; prog; input; coords; rr; link = base_link; img; outputs = [] })
          (Span.with_ "workload.generate" (fun () -> w.programs ~seed))
        |> Array.of_list
      in
      let warm_ms = since_ms t0 in
      let builds = ref [] and build_lock = Mutex.create () in
      let inner = Fleetapp.incremental_builder ~body_seed ~jobs:width Dconfig.full_checked in
      let build ~seed =
        let t0 = now () in
        let img = inner ~seed in
        let t1 = now () in
        Mutex.protect build_lock (fun () -> builds := Span.ms_between t0 t1 :: !builds);
        Span.record ~name:"runtime.pool.build" ~t0 ~t1 ();
        img
      in
      let cfg =
        {
          Fleet.default_config with
          Fleet.shards = fleet_shards;
          seed;
          arrival_cycles;
          jobs = width;
          shard = { Fleet.default_config.Fleet.shard with Pool.inject = chaos_rates };
        }
      in
      let fleet =
        Span.with_ "runtime.fleet.create" (fun () ->
            Fleet.create ~cfg ~build ~break_sym:Fleetapp.break_symbol ())
      in
      builds := [];
      { units; fleet; builds; build_lock; payload_rng = Rng.create (seed + 0x5eed); warm_ms })

(* ------------------------------------------------------------------ *)
(* The phase-by-phase compile: [Pipeline.compile_cold]'s steps called one
   by one — instrument, validate, emit each function, link — so each
   layer's share of a cold compile is measured where it happens. *)

let phases = [| "core.instrument"; "ir.validate"; "compiler.emit"; "compiler.link" |]

type decomposed = {
  d_img : Image.t;
  d_ms : float array;  (** per entry of [phases] *)
  d_regalloc_ms : float;
  d_funcs : int;
  d_insns : int;
}

let compile_decomposed (c : Pipeline.coords) prog =
  let ms = Array.make (Array.length phases) 0.0 in
  let phase k f =
    let t0 = now () in
    let r = Span.with_ phases.(k) f in
    ms.(k) <- since_ms t0;
    r
  in
  let p, opts, emitted, img =
    Span.with_ ~structural:true "compiler.decomposed" (fun () ->
        let p, opts =
          phase 0 (fun () ->
              Pipeline.instrument ?link_seed:c.Pipeline.link_seed ~seed:c.Pipeline.body_seed
                c.Pipeline.cfg prog)
        in
        if phase 1 (fun () -> Validate.check p) <> [] then
          failwith "perfbench: program failed validation";
        let emitted =
          phase 2 (fun () ->
              List.map (fun f -> Emit.emit_func ~opts f) p.Ir.funcs
              @ List.map
                  (Asm.of_raw ~size:opts.R2c_compiler.Opts.mdesc.Mdesc.insn_size)
                  opts.R2c_compiler.Opts.raw_funcs)
        in
        (p, opts, emitted, phase 3 (fun () -> Link.link ~opts ~main:p.Ir.main emitted p.Ir.globals)))
  in
  (* Register allocation runs inside emit; it is timed again on its own
     with each function's pool, reported as a share of emit rather than
     as a summand. *)
  let t1 = now () in
  Span.with_ "compiler.regalloc" (fun () ->
      List.iter
        (fun (f : Ir.func) ->
          ignore (Regalloc.allocate ~pool:(opts.R2c_compiler.Opts.reg_pool ~fname:f.Ir.name) f))
        p.Ir.funcs);
  {
    d_img = img;
    d_ms = ms;
    d_regalloc_ms = since_ms t1;
    d_funcs = List.length emitted;
    d_insns = List.fold_left (fun a (e : Asm.emitted) -> a + Array.length e.Asm.insns) 0 emitted;
  }

(* The single-function edit: one more local variable in the middle
   function grows its frame and touches no other function's
   diversification slice, so the rebuild must miss exactly once. *)
let edit_one (p : Ir.program) =
  let victim = List.nth p.Ir.funcs (List.length p.Ir.funcs / 2) in
  let grow (f : Ir.func) = if f == victim then { f with Ir.nvars = f.Ir.nvars + 1 } else f in
  { p with Ir.funcs = List.map grow p.Ir.funcs }

(* ------------------------------------------------------------------ *)

type samples = {
  compile_s : float list ref;
  decomposed : decomposed array list ref;  (** one array per op, one entry per program *)
  unattributed : float list ref;  (** per decomposition: |1 - phases / cold compile beside it| *)
  rotate_ms : float list ref;
  rotate_spans_off_ms : float list ref;  (** traced run: rotations with spans off *)
  rotate_spans_on_ms : float list ref;
  loader_ms : float list ref;
  hits : int ref;
  misses : int ref;
  edit_ms : float ref;
  exec_runs : (string, float * int) Hashtbl.t;  (** program -> (seconds, insns) per run *)
  jit : Jit.stats;
  prof_runs : (string, float * int) Hashtbl.t;
  submit_us : float list ref;
  served_cycles : float list ref;  (** simulated service cycles per served request *)
  probes : (string * float) list ref;  (** trace-only per-layer totals *)
  replay_ms : float list ref;
  rotation_checks : (unit_ * Pipeline.coords * string) list ref;
}

let fresh_samples () =
  {
    compile_s = ref [];
    decomposed = ref [];
    unattributed = ref [];
    rotate_ms = ref [];
    rotate_spans_off_ms = ref [];
    rotate_spans_on_ms = ref [];
    loader_ms = ref [];
    hits = ref 0;
    misses = ref 0;
    edit_ms = ref 0.0;
    exec_runs = Hashtbl.create 16;
    jit =
      {
        Jit.compiled = 0;
        revalidated = 0;
        invalidated = 0;
        entry_enters = 0;
        osr_enters = 0;
        deopts = 0;
        tier3_insns = 0;
        interp_insns = 0;
      };
    prof_runs = Hashtbl.create 16;
    submit_us = ref [];
    served_cycles = ref [];
    probes = ref [];
    replay_ms = ref [];
    rotation_checks = ref [];
  }

(* Simulated instructions per host second over one pass of every program:
   each program's median run time and instruction count, summed. *)
let mips runs =
  let names = List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) runs []) in
  let secs, insns =
    List.fold_left
      (fun (ts, is) name ->
        let rs = Hashtbl.find_all runs name in
        ( ts +. Stats.median (List.map fst rs),
          is +. Stats.median (List.map (fun (_, n) -> float_of_int n) rs) ))
      (0.0, 0.0) names
  in
  if secs > 0.0 then insns /. secs /. 1e6 else 0.0

let add_probe s key v =
  s.probes := (key, v +. Option.value ~default:0.0 (List.assoc_opt key !(s.probes))) :: List.remove_assoc key !(s.probes)

let probe s key = Option.value ~default:0.0 (List.assoc_opt key !(s.probes))

(* The measured phase. Stages share the run by deficit round robin: the
   stage furthest below its share of the time spent so far runs next, for
   a quantum of about 20 ms (at least one operation). Every stage's
   samples are thus spread over the whole run, so a slow spell of the
   host touches every metric a little rather than one metric entirely.
   Past [seconds], stages still short of their minimum operation count
   keep running. Each stage is [(name, share, min_ops, step)]; [step i]
   runs the stage's [i]-th operation. *)
let interleave ~seconds stages =
  let stages = Array.of_list stages in
  let n = Array.length stages in
  let spent = Array.make n 0.0 and count = Array.make n 0 in
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let short k = let _, _, min_ops, _ = stages.(k) in count.(k) < min_ops in
  let rec loop () =
    let past = Int64.compare (now ()) deadline >= 0 in
    let eligible = List.filter (fun k -> (not past) || short k) (List.init n Fun.id) in
    match eligible with
    | [] -> ()
    | k0 :: _ ->
        let behind k = let _, share, _, _ = stages.(k) in spent.(k) /. share in
        let k = List.fold_left (fun b k -> if behind k < behind b then k else b) k0 eligible in
        let name, _, _, step = stages.(k) in
        let t0 = now () in
        let until = Int64.add t0 20_000_000L in
        Span.with_ ~structural:true ("stage." ^ name) (fun () ->
            let continue = ref true in
            while !continue do
              step count.(k);
              count.(k) <- count.(k) + 1;
              continue := Int64.compare (now ()) until < 0 && (not past || short k)
            done);
        spent.(k) <- spent.(k) +. since_ms t0;
        Span.with_ "host.calibrate" Calib.sample;
        loop ()
  in
  loop ()

let record_output u (out : int * string) =
  if not (List.mem out u.outputs) then u.outputs <- out :: u.outputs

let outcome_ok u what = function
  | Process.Exited code, out -> record_output u (code, out); op true
  | o, _ -> check (Printf.sprintf "%s: %s ended %s" u.uname what (Process.outcome_to_string o)) false

let stage_compile st s ~traced i =
  let cold () =
    let t0 = now () in
    Span.with_ "core.compile_cold" (fun () ->
        Array.iter (fun u -> ignore (Pipeline.compile_cold u.coords u.prog)) st.units);
    let secs = since_ms t0 /. 1000.0 in
    s.compile_s := secs :: !(s.compile_s);
    secs
  in
  if not (traced && i mod 2 = 1) then begin
    ignore (cold ());
    op true
  end
  else begin
    (* A decomposition is paired with a cold compile right beside it,
       each from a settled heap, so neither pays the other's GC debt. *)
    Span.with_ "gc.settle" Gc.full_major;
    let cold_s = cold () in
    Span.with_ "gc.settle" Gc.full_major;
    let ds = Array.map (fun u -> (u, compile_decomposed u.coords u.prog)) st.units in
    s.decomposed := Array.map snd ds :: !(s.decomposed);
    let phases_ms = Array.fold_left (fun a (_, d) -> Array.fold_left ( +. ) a d.d_ms) 0.0 ds in
    s.unattributed := Float.abs (1.0 -. (phases_ms /. (1000.0 *. cold_s))) :: !(s.unattributed);
    op true;
    (* The first decomposition of a run is checked against the cold
       compile at the same coordinates. *)
    if List.length !(s.decomposed) = 1 then
      Array.iter
        (fun (u, d) ->
          check
            (u.uname ^ ": phase-by-phase compile fingerprint equals compile_cold")
            (Span.with_ "check.fingerprint" (fun () ->
                 String.equal (Image.fingerprint d.d_img)
                   (Image.fingerprint (Pipeline.compile_cold u.coords u.prog)))))
        ds
  end

let stage_rotate st s ~traced ~width i =
  let u = st.units.(i mod Array.length st.units) in
  u.link <- u.link + 1;
  let c = coords_at u u.link in
  (* In the traced run every other rotation runs with spans off: the
     two medians give the tracing overhead. *)
  let spans_off = traced && i mod 2 = 1 in
  if spans_off then Span.enabled := false;
  let t0 = now () in
  let img, stats, load_ms =
    Span.with_ ~structural:true "rotate.op" (fun () ->
        let img, stats =
          Span.with_ "core.compile_incremental" (fun () ->
              Pipeline.compile_incremental ~jobs:width u.rr c u.prog)
        in
        let t1 = now () in
        ignore (Sys.opaque_identity (Span.with_ "machine.loader" (fun () -> Process.start img)));
        (img, stats, since_ms t1))
  in
  let t1 = now () in
  let ms = Span.ms_between t0 t1 in
  Span.enabled := traced;
  (* Recorded after the fact, so the span-free rotation stays attributed. *)
  if spans_off then Span.record ~name:"rotate.op.spans_off" ~t0 ~t1 ();
  s.rotate_ms := ms :: !(s.rotate_ms);
  let split = if spans_off then s.rotate_spans_off_ms else s.rotate_spans_on_ms in
  split := ms :: !split;
  s.loader_ms := load_ms :: !(s.loader_ms);
  s.hits := !(s.hits) + stats.Incremental.hits;
  s.misses := !(s.misses) + stats.Incremental.misses;
  u.img <- img;
  check (u.uname ^ ": rotation recompiles nothing") (stats.Incremental.misses = 0);
  (* Sampled rotations are checked against a cold compile after the
     measured phase: the first one of each program, then every 32nd. *)
  if i < Array.length st.units || i mod 32 = 0 then
    s.rotation_checks :=
      (u, c, Span.with_ "check.fingerprint" (fun () -> Image.fingerprint img)) :: !(s.rotation_checks)

let stage_edit st s ~width =
  let u = st.units.(0) in
  let p2 = edit_one u.prog in
  let c = coords_at u (u.link + 1) in
  let t0 = now () in
  let img, stats =
    Span.with_ "compiler.incremental.edit" (fun () -> Pipeline.compile_incremental ~jobs:width u.rr c p2)
  in
  s.edit_ms := since_ms t0;
  check (u.uname ^ ": one-function edit recompiles exactly one function") (stats.Incremental.misses = 1);
  check
    (u.uname ^ ": edit rebuild fingerprint equals compile_cold")
    (Span.with_ "check.fingerprint" (fun () ->
         String.equal (Image.fingerprint img) (Image.fingerprint (Pipeline.compile_cold c p2))))

let start_fed u =
  let p = Process.start u.img in
  List.iter (Cpu.push_input p.Process.cpu) u.input;
  p

let stage_exec st s i =
  let u = st.units.(i mod Array.length st.units) in
  let p = Span.with_ "machine.loader" (fun () -> start_fed u) in
  let t0 = now () in
  let o = Span.with_ "machine.cpu.run" (fun () -> Process.run p) in
  Hashtbl.add s.exec_runs u.uname (since_ms t0 /. 1000.0, Process.insns p);
  (match Process.jit_stats p with
  | Some j ->
      let a = s.jit in
      a.Jit.compiled <- a.Jit.compiled + j.Jit.compiled;
      a.Jit.osr_enters <- a.Jit.osr_enters + j.Jit.osr_enters;
      a.Jit.deopts <- a.Jit.deopts + j.Jit.deopts;
      a.Jit.tier3_insns <- a.Jit.tier3_insns + j.Jit.tier3_insns;
      a.Jit.interp_insns <- a.Jit.interp_insns + j.Jit.interp_insns
  | None -> ());
  outcome_ok u "default-tier run" (o, Process.output p)

let stage_profiled st s i =
  let u = st.units.(i mod Array.length st.units) in
  let p = Span.with_ "machine.loader" (fun () -> start_fed u) in
  let prof =
    Span.with_ "obs.profile.attach" (fun () ->
        let prof = Profile.create ~profile:p.Process.profile u.img in
        Profile.attach prof p.Process.cpu;
        prof)
  in
  let t0 = now () in
  let o = Span.with_ "obs.profile.run" (fun () -> Process.run p) in
  Hashtbl.add s.prof_runs u.uname (since_ms t0 /. 1000.0, Process.insns p);
  outcome_ok u "profiled run" (o, Process.output p);
  let tot = Profile.total prof in
  check
    (u.uname ^ ": Profile.total equals the CPU's own counters")
    (tot.Profile.insns = Process.insns p
    && tot.Profile.misses = Process.icache_misses p
    && Float.abs (tot.Profile.cycles -. Process.cycles p) <= 1e-9 *. Float.max 1.0 (Process.cycles p))

(* Trace-only: each program once more through every CPU tier, timed
   apart — predecode, a cold then a warm JIT cache (their gap is JIT
   compile time), the fast interpreter and the reference dispatch. *)
let probe_tiers st s =
  let fuel = 50_000_000 in
  Array.iter
    (fun u ->
      let profile = Cost.epyc_rome in
      let timed key f =
        let t0 = now () in
        let r = Span.with_ key f in
        add_probe s key (since_ms t0);
        r
      in
      Span.with_ "gc.settle" Gc.full_major;
      ignore (timed "machine.predecode" (fun () -> Image.predecode u.img));
      let run key ~reference load =
        let cpu = Span.with_ "machine.loader" load in
        List.iter (Cpu.push_input cpu) u.input;
        let t0 = now () in
        let r = Span.with_ key (fun () -> if reference then Cpu.run_reference cpu ~fuel else Cpu.run cpu ~fuel) in
        add_probe s (key ^ ".ms") (since_ms t0);
        add_probe s (key ^ ".insns") (float_of_int cpu.Cpu.insns);
        check (u.uname ^ ": " ^ key ^ " halts") (r = Cpu.Halted);
        record_output u (cpu.Cpu.exit_code, Cpu.output cpu)
      in
      let cache = Span.with_ "machine.jit.create_cache" (fun () -> Jit.create_cache ~profile u.img) in
      let jit () = Loader.load ~jit:true ~jit_cache:cache ~profile u.img in
      let nojit () = Loader.load ~jit:false ~profile u.img in
      run "machine.jit.cold" ~reference:false jit;
      run "machine.jit.warm" ~reference:false jit;
      run "machine.cpu.fast" ~reference:false nojit;
      run "machine.cpu.ref" ~reference:true nojit)
    st.units

let stage_serve st s i =
  let payload = payload st.payload_rng in
  let t0 = now () in
  let resp = Span.with_submit (i + 1) (fun () -> Fleet.submit st.fleet payload) in
  s.submit_us := (since_ms t0 *. 1000.0) :: !(s.submit_us);
  (* A dropped or refused request is a failed operation, not a failed
     check: the campaign's drop count is part of its result. *)
  match resp with
  | Pool.Served { cycles; _ } ->
      s.served_cycles := float_of_int cycles :: !(s.served_cycles);
      op true
  | Pool.Rejected _ | Pool.Dropped -> op false

let replay_dir = Filename.concat "bench" "replays"

let stage_replay s =
  List.iter
    (fun path ->
      let name = Filename.basename path in
      let t0 = now () in
      let verdict =
        Span.with_ "replay.check" (fun () ->
            match Rtrace.load path with Error e -> Error e | Ok t -> Replayer.check t)
      in
      s.replay_ms := since_ms t0 :: !(s.replay_ms);
      match verdict with
      | Ok v when v.Replayer.failures = [] -> op true
      | Ok v -> check (name ^ ": replay fidelity: " ^ String.concat "; " v.Replayer.failures) false
      | Error e -> check (name ^ ": replay: " ^ e) false)
    (Rtrace.files ~dir:replay_dir)

(* ------------------------------------------------------------------ *)
(* Checks after the measured phase. *)

let interp_output u =
  match Interp.run ~input:u.input u.prog with
  | Ok r -> Some (r.Interp.exit_code, r.Interp.output)
  | Error e ->
      check (u.uname ^ ": reference interpreter: " ^ Interp.error_to_string e) false;
      None

let post_checks st s =
  Array.iter
    (fun u ->
      match interp_output u with
      | None -> ()
      | Some want ->
          check (u.uname ^ ": ran at least once") (u.outputs <> []);
          check (u.uname ^ ": every run's output equals Ir.Interp's") (List.for_all (( = ) want) u.outputs))
    st.units;
  List.iter
    (fun (u, c, fp) ->
      check
        (Printf.sprintf "%s: rotation at link seed %d fingerprint equals compile_cold" u.uname
           (Option.value ~default:0 c.Pipeline.link_seed))
        (String.equal fp (Image.fingerprint (Pipeline.compile_cold c u.prog))))
    !(s.rotation_checks);
  let fs = Fleet.stats st.fleet in
  check "fleet: rotation_drops = 0" (fs.Fleet.rotation_drops = 0);
  check "fleet: every submit accounted served or dropped" (fs.Fleet.served + fs.Fleet.dropped = fs.Fleet.submitted)

(* The paper's metric as a guard: exact simulated cycles of full over
   baseline at the base coordinates, geometric mean over programs. *)
let sim_overhead st =
  Array.to_list st.units
  |> List.map (fun u ->
         let cycles cfg =
           let img = Pipeline.compile_cold { u.coords with Pipeline.cfg } u.prog in
           let p = Process.start img in
           List.iter (Cpu.push_input p.Process.cpu) u.input;
           ignore (Process.run p);
           Process.cycles p
         in
         cycles u.coords.Pipeline.cfg /. cycles Dconfig.baseline)
  |> Stats.geomean
