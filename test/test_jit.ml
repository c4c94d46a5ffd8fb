(* Differential tests for the tier-3 template JIT: the bit-identicality
   contract across three lanes (reference dispatch, tier 3 never
   compiling, tier 3 compiling) on pinned generated programs, the fuzz
   corpus, faults inside compiled code, and deopt storms (random fuel
   cuts, mid-run profiler attachment). Every three-lane case also runs
   observed — a profiler, a post-mortem ring and a fire counter tee'd onto
   one CPU — on the reference tier and on tier 3, which must agree on all
   three. Plus the per-image code cache: shared by the processes of an
   image, across domains too, never entered with the JIT off; and the
   staleness battery: a poisoned or rerandomized cache entry must be
   invalidated or adopted by key — never executed. *)

open R2c_machine
module D = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
module Gen = R2c_fuzz.Gen
module Corpus = R2c_fuzz.Corpus
module Genprog = R2c_workloads.Genprog
module Opts = R2c_compiler.Opts
module Link = R2c_compiler.Link
module Asm = R2c_compiler.Asm
module RTrace = R2c_replay.Trace
module Profile = R2c_obs.Profile
module Q = QCheck

let fuel = 2_000_000

(* Compile-everything-immediately thresholds: unit-test programs are
   short, so the default warm-up would leave tier 3 cold. *)
let hot = { Jit.call_threshold = 1; backedge_threshold = 2 }

(* A hot attachment and the counters it fills. *)
let attach_hot cpu =
  let stats = Jit.fresh_stats () in
  (Jit.attach ~config:hot ~stats cpu, stats)

(* Same oracle as Test_perf: everything the contract covers, cycles as
   IEEE-754 bits. *)
let fingerprint cpu result =
  Printf.sprintf "%s|exit:%d|cycles:%Lx|insns:%d|imiss:%d|iacc:%d|depth:%d|out:%s"
    (match result with
    | Cpu.Halted -> "halted"
    | Cpu.Fuel_exhausted -> "fuel"
    | Cpu.Faulted f -> "fault:" ^ Fault.to_string f)
    cpu.Cpu.exit_code
    (Int64.bits_of_float cpu.Cpu.cycles)
    cpu.Cpu.insns
    (Icache.misses cpu.Cpu.icache)
    (Icache.accesses cpu.Cpu.icache)
    cpu.Cpu.max_depth (Cpu.output cpu)

(* JIT off at load (tier 3 never compiling); each leg decides its own
   tier. *)
let load img = Loader.load ~strict_align:true ~jit:false ~profile:Cost.epyc_rome img

let load_fed ~inputs img =
  let cpu = load img in
  List.iter (Cpu.push_input cpu) inputs;
  cpu

let fp_reference ?(inputs = []) img =
  let cpu = load_fed ~inputs img in
  fingerprint cpu (Cpu.run_reference cpu ~fuel)

let fp_jit_off ~inputs img =
  let cpu = load_fed ~inputs img in
  fingerprint cpu (Cpu.run cpu ~fuel)

(* Returns the fingerprint and the attachment's stats so callers can
   assert tier 3 actually ran. *)
let fp_tier3 ~inputs img =
  let cpu = load_fed ~inputs img in
  let _, st = attach_hot cpu in
  let fp = fingerprint cpu (Cpu.run cpu ~fuel) in
  (fp, st)

(* A profiler, a post-mortem ring and a fire counter, tee'd onto [cpu] in
   that order; the thunk reads all three back. *)
let observe cpu img =
  let pr = Profile.create ~profile:Cost.epyc_rome img in
  Profile.attach pr cpu;
  let ring = Ring.create ~capacity:64 in
  Ring.attach ~tee:true ring cpu;
  let fires = ref 0 in
  let count ~cycles:_ ~misses:_ ~called:_ = incr fires in
  Cpu.attach_observer ~tee:true cpu (fun ~rip:_ -> count);
  fun () -> (Profile.fingerprint pr, Test_obs.ring_lines ring, !fires)

(* One observed run, on tier 3 under [hot] thresholds or on the reference
   tier: its fingerprint, what its observers saw, and the tier-3 stats. *)
let observed_run ?(inputs = []) ~tier3 img =
  let cpu = load_fed ~inputs img in
  let st = Jit.fresh_stats () in
  if tier3 then ignore (Jit.attach ~config:hot ~stats:st cpu);
  let read = observe cpu img in
  let r = if tier3 then Cpu.run cpu ~fuel else Cpu.run_reference cpu ~fuel in
  (fingerprint cpu r, read (), st)

(* The observed half of the contract: an observed tier-3 run retires the
   same run as the unobserved reference, and its observers see exactly
   what they see on the observed reference tier. Returns the tier-3 run's
   stats. *)
let check_observed ~inputs name img ~reference =
  let fp_r, (prof_r, ring_r, fires_r), _ = observed_run ~inputs ~tier3:false img in
  let fp_j, (prof_j, ring_j, fires_j), st = observed_run ~inputs ~tier3:true img in
  Alcotest.(check string) (name ^ " [observed reference]") reference fp_r;
  Alcotest.(check string) (name ^ " [observed tier3]") reference fp_j;
  Alcotest.(check string) (name ^ " [profile]") prof_r prof_j;
  Alcotest.(check bool) (name ^ " [ring tail]") true (ring_r = ring_j);
  Alcotest.(check int) (name ^ " [fire count]") fires_r fires_j;
  st

let check_three_tiers ?(inputs = []) name img =
  let reference = fp_reference ~inputs img in
  Alcotest.(check string) (name ^ " [jit off]") reference (fp_jit_off ~inputs img);
  let t3, st = fp_tier3 ~inputs img in
  Alcotest.(check string) (name ^ " [tier3]") reference t3;
  ignore (check_observed ~inputs name img ~reference);
  st

(* --- observed first: templates compiled under an observer ----------- *)

(* Every case above compiles plain code before an observed run wraps it.
   Here the first tier-3 run of a fresh image is the observed one, so its
   functions compile, and their observed templates are derived, in the
   middle of an observed run. *)
let test_observed_first () =
  List.iter
    (fun i ->
      let seed = 7001 + (137 * i) in
      let img = Pipeline.compile ~seed (D.full ()) (Gen.v2 ~seed ()) in
      let name = Printf.sprintf "observed first, gen seed %d" seed in
      let st = check_observed ~inputs:[] name img ~reference:(fp_reference img) in
      Alcotest.(check bool) (name ^ " [compiled while observed]") true (st.Jit.compiled > 0);
      Alcotest.(check bool) (name ^ " [ran compiled]") true (st.Jit.tier3_insns > 0))
    [ 1; 4; 9; 16 ]

(* --- the 25 pinned-seed programs, three tiers ----------------------- *)

let test_generated_programs () =
  let tier3_total = ref 0 and compiled_total = ref 0 in
  for i = 1 to 25 do
    let seed = 7001 + (137 * i) in
    let p = Gen.v2 ~seed () in
    let st =
      check_three_tiers
        (Printf.sprintf "gen seed %d full" seed)
        (Pipeline.compile ~seed (D.full ()) p)
    in
    tier3_total := !tier3_total + st.Jit.tier3_insns;
    compiled_total := !compiled_total + st.Jit.compiled;
    if i mod 5 = 0 then
      ignore
        (check_three_tiers
           (Printf.sprintf "gen seed %d baseline" seed)
           (Pipeline.compile ~seed D.baseline p))
  done;
  (* the equality above must not be vacuous *)
  Alcotest.(check bool) "tier 3 compiled functions" true (!compiled_total > 0);
  Alcotest.(check bool) "tier 3 retired instructions" true (!tier3_total > 0)

(* --- fuzz corpus through all three tiers ---------------------------- *)

let test_corpus_replay () =
  List.iter
    (fun path ->
      match Corpus.load path with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok p ->
          ignore
            (check_three_tiers (path ^ " full") (Pipeline.compile ~seed:11 (D.full ()) p));
          ignore
            (check_three_tiers (path ^ " baseline")
               (Pipeline.compile ~seed:11 D.baseline p)))
    (Corpus.files ~dir:"corpus")

(* --- the replay corpus through all three tiers ----------------------- *)

let test_replay_corpus () =
  match List.find_opt Sys.file_exists [ "../bench/replays"; "bench/replays" ] with
  | None -> ()  (* corpus not shipped to this checkout *)
  | Some dir ->
      List.iter
        (fun path ->
          match RTrace.load path with
          | Error e -> Alcotest.failf "%s: %s" path e
          | Ok t ->
              ignore
                (check_three_tiers ~inputs:(RTrace.feeds t) (Filename.basename path)
                   (RTrace.build t.RTrace.meta t.RTrace.program)))
        (RTrace.files ~dir)

(* --- OSR: compiled code entered at a loop head, not just at entry --- *)

let test_osr_entry () =
  let seed = 7001 + 137 in
  let img = Pipeline.compile ~seed (D.full ()) (Gen.v2 ~seed ()) in
  let cpu = load img in
  let _, st = attach_hot cpu in
  ignore (Cpu.run cpu ~fuel);
  Alcotest.(check bool) "compiled" true (st.Jit.compiled > 0);
  Alcotest.(check bool) "entered at function entry" true (st.Jit.entry_enters > 0);
  Alcotest.(check bool) "entered via OSR" true (st.Jit.osr_enters > 0);
  Alcotest.(check bool)
    "tier 3 retired the bulk" true
    (st.Jit.tier3_insns > st.Jit.interp_insns)

(* --- faults detonating inside compiled code ------------------------- *)

(* With call_threshold = 1 the function compiles on first entry, so the
   faulting instruction runs as a tier-3 template, not interpreted. *)
let raw_image insns =
  let emitted = [ Asm.of_raw { Opts.rname = "main"; rinsns = insns; rbooby_trap = false } ] in
  Link.link ~opts:Opts.default ~main:"main" emitted []

let test_fault_equality () =
  ignore
    (check_three_tiers "div by zero in hot code"
       (raw_image
          Insn.
            [ Mov (Reg RAX, Imm (Abs 1)); Mov (Reg RBX, Imm (Abs 0)); Div (RAX, Reg RBX); Ret ]));
  ignore
    (check_three_tiers "wild store in hot code"
       (raw_image
          Insn.
            [ Mov (Reg RAX, Imm (Abs 0x666000)); Mov (Mem (mem ~base:RAX ()), Imm (Abs 1)); Ret ]));
  ignore (check_three_tiers "trap in hot code" (raw_image Insn.[ Trap ]));
  (* A hot loop, then an exit from compiled code: into a booby trap, or
     by a jump out of the text. *)
  let hot_loop_then exit_insns =
    let head = Insn.size (Insn.Mov (Reg RCX, Imm (Abs 40))) in
    raw_image
      (Insn.
         [
           Mov (Reg RCX, Imm (Abs 40));
           Binop (Sub, RCX, Imm (Abs 1));
           Cmp (Reg RCX, Imm (Abs 0));
           Jcc (Ne, TSym ("main", head));
         ]
      @ exit_insns)
  in
  let st = check_three_tiers "booby trap after a hot loop" (hot_loop_then Insn.[ Trap ]) in
  Alcotest.(check bool) "the loop was compiled" true (st.Jit.compiled > 0);
  ignore
    (check_three_tiers "jump out of the text after a hot loop"
       (hot_loop_then Insn.[ Mov (Reg RAX, Imm (Abs 0x10)); Jmp_ind (Reg RAX) ]))

(* --- builtin taps fire identically under tier 3 --------------------- *)

let test_builtin_tap () =
  let seed = 7001 + (137 * 2) in
  let img = Pipeline.compile ~seed (D.full ()) (Gen.v2 ~seed ()) in
  let tap cpu =
    let n = ref 0 in
    Cpu.set_builtin_tap cpu (Some (fun _ _ -> incr n));
    n
  in
  let cpu_r = load img in
  let n_r = tap cpu_r in
  let fp_r = fingerprint cpu_r (Cpu.run_reference cpu_r ~fuel) in
  let cpu_j = load img in
  let n_j = tap cpu_j in
  let _, st = attach_hot cpu_j in
  let fp_j = fingerprint cpu_j (Cpu.run cpu_j ~fuel) in
  Alcotest.(check string) "fingerprints agree" fp_r fp_j;
  Alcotest.(check int) "tap fire counts agree" !n_r !n_j;
  Alcotest.(check bool) "taps fired" true (!n_r > 0);
  Alcotest.(check bool) "tier 3 ran under the tap" true (st.Jit.tier3_insns > 0)

(* --- deopt storm: random fuel cuts + mid-run profiler attach -------- *)

(* A run segmented at arbitrary fuel boundaries, with a profiler attached
   on every other segment (observed templates for that stretch, plain
   ones between: a switch at every cut), must land on exactly the state
   of one uninterrupted reference run — and the profiler must see what it
   sees riding the same segments of a reference run. *)
let run_segmented ~run cpu cuts total prof =
  let remaining = ref total in
  let result = ref Cpu.Fuel_exhausted in
  let stopped = ref false in
  List.iteri
    (fun k f ->
      if (not !stopped) && !remaining > 0 then begin
        let f = min f !remaining in
        if k land 1 = 1 then Profile.attach prof cpu;
        let r = run cpu ~fuel:f in
        Cpu.set_observer cpu None;
        remaining := !remaining - f;
        match r with
        | Cpu.Fuel_exhausted -> ()
        | r ->
            result := r;
            stopped := true
      end)
    cuts;
  if (not !stopped) && !remaining > 0 then result := run cpu ~fuel:!remaining;
  !result

let prop_deopt_storm =
  Q.Test.make ~count:20
    ~name:"jit: segmented tier-3 run with mid-run profiler == one profiled reference run"
    Q.(pair (int_range 1 25) (small_list (int_range 1 20_000)))
    (fun (i, cuts) ->
      let seed = 7001 + (137 * i) in
      let img = Pipeline.compile ~seed (D.full ()) (Gen.v2 ~seed ()) in
      let total = fuel in
      let reference =
        let cpu = load img in
        fingerprint cpu (Cpu.run_reference cpu ~fuel:total)
      in
      let profiled ~tier3 =
        let cpu = load img in
        if tier3 then ignore (Jit.attach ~config:hot cpu);
        let prof = Profile.create ~profile:Cost.epyc_rome img in
        let run = if tier3 then Cpu.run else Cpu.run_reference in
        let r = run_segmented ~run cpu cuts total prof in
        (fingerprint cpu r, Profile.fingerprint prof)
      in
      let fp_ref, prof_ref = profiled ~tier3:false in
      let fp_jit, prof_jit = profiled ~tier3:true in
      String.equal reference fp_ref
      && String.equal reference fp_jit
      && String.equal prof_ref prof_jit)

(* --- profiled at production thresholds, every lane ------------------ *)

(* One profiled run of [img] on a lane: the run's fingerprint, then what a
   profiler, a ring and a fire counter tee'd onto it saw. [arm] picks the
   tier: [None] is the reference tier; otherwise tier 3 with that
   attachment. No strict alignment, as a process runs. *)
let profiled_lane ?(fuel = 50_000_000) img arm =
  let cpu = Loader.load ~jit:false ~profile:Cost.epyc_rome img in
  Option.iter (fun attach -> attach cpu) arm;
  let read = observe cpu img in
  let r = if Option.is_some arm then Cpu.run cpu ~fuel else Cpu.run_reference cpu ~fuel in
  (fingerprint cpu r, read ())

(* Profiled tier 3 at its default thresholds — compiling into a fresh
   private cache, warm on that cache, never compiling — equals the
   profiled reference run: rows, edges and totals bit for bit, the ring's
   tail and the fire count too. *)
let check_profiled_lanes name img =
  let reference = profiled_lane img None in
  let cache = Jit.create_cache ~profile:Cost.epyc_rome img in
  let lane what ?config () =
    let st = Jit.fresh_stats () in
    let got = profiled_lane img (Some (fun cpu -> ignore (Jit.attach ?config ~cache ~stats:st cpu))) in
    let (fp_r, (prof_r, ring_r, fires_r)), (fp, (prof, ring, fires)) = (reference, got) in
    let what = name ^ " [" ^ what ^ "]" in
    Alcotest.(check string) (what ^ " run") fp_r fp;
    Alcotest.(check string) (what ^ " profile") prof_r prof;
    Alcotest.(check bool) (what ^ " ring tail") true (ring_r = ring);
    Alcotest.(check int) (what ^ " fire count") fires_r fires;
    st
  in
  let compiling = lane "compiling" () in
  let warm = lane "warm" () in
  ignore (lane "never compiling" ~config:Jit.never ());
  Alcotest.(check bool) (name ^ " compiled") true (compiling.Jit.compiled > 0);
  Alcotest.(check int) (name ^ " warm compiles nothing") 0 warm.Jit.compiled;
  Alcotest.(check bool) (name ^ " warm ran compiled") true (warm.Jit.tier3_insns > 0)

let test_profiled_spec () =
  List.iter
    (fun (b : R2c_workloads.Spec.benchmark) ->
      check_profiled_lanes b.R2c_workloads.Spec.name
        (Pipeline.compile ~seed:3 (D.full ()) b.R2c_workloads.Spec.program))
    (R2c_workloads.Spec.all ())

(* A rotated 2,000-function image: the first run of a placement, whose
   observed cold loop covers most of the run. *)
let test_profiled_rotated_genprog () =
  let p = Genprog.generate ~seed:1 ~funcs:2000 in
  let r = Pipeline.rerand_create () in
  let coords link = { Pipeline.cfg = D.full (); body_seed = 7920; link_seed = Some link } in
  ignore (Pipeline.compile_incremental r (coords 1100) p);
  check_profiled_lanes "genprog 2000, rotated" (fst (Pipeline.compile_incremental r (coords 1101) p))

(* Two observers tee'd onto one CPU fire in the same interleaving on every
   lane, and a crash leaves the same post-mortem tail: faults in the
   observed cold loop (default thresholds, nothing hot yet) and in
   observed templates fire exactly as the reference step does. *)
let test_tee_order_and_post_mortem () =
  let cases =
    Insn.
      [
        ("trap", [ Mov (Reg RAX, Imm (Abs 1)); Trap ]);
        ("div by zero", [ Mov (Reg RBX, Imm (Abs 0)); Div (RAX, Reg RBX); Ret ]);
        ("wild store", [ Mov (Reg RAX, Imm (Abs 0x666000)); Mov (Mem (mem ~base:RAX ()), Imm (Abs 1)) ]);
        ("jump out of the text", [ Mov (Reg RAX, Imm (Abs 0x10)); Jmp_ind (Reg RAX) ]);
      ]
  in
  let run img arm =
    let cpu = Loader.load ~jit:false ~profile:Cost.epyc_rome img in
    Option.iter (fun attach -> attach cpu) arm;
    let ring = Ring.create ~capacity:32 in
    Ring.attach ring cpu;
    let log = Buffer.create 256 in
    let tagged tag ~rip =
      Buffer.add_string log (Printf.sprintf "resolve %s %x;" tag rip);
      fun ~cycles ~misses ~called ->
        Buffer.add_string log (Printf.sprintf "%s %x %Lx %d %b;" tag rip (Int64.bits_of_float cycles) misses called)
    in
    Cpu.attach_observer ~tee:true cpu (tagged "a");
    Cpu.attach_observer ~tee:true cpu (tagged "b");
    let r = if Option.is_some arm then Cpu.run cpu ~fuel else Cpu.run_reference cpu ~fuel in
    (fingerprint cpu r, Ring.pp_tail ring ~n:16, Buffer.contents log)
  in
  List.iter
    (fun (name, insns) ->
      let img = raw_image insns in
      let fp_r, tail_r, log_r = run img None in
      Alcotest.(check bool) (name ^ " faults") true (String.length fp_r > 5 && String.sub fp_r 0 5 = "fault");
      List.iter
        (fun (lane, config) ->
          let fp, tail, log = run img (Some (fun cpu -> ignore (Jit.attach ?config cpu))) in
          Alcotest.(check string) (Printf.sprintf "%s [%s] run" name lane) fp_r fp;
          Alcotest.(check string) (Printf.sprintf "%s [%s] post-mortem tail" name lane) tail_r tail;
          Alcotest.(check string) (Printf.sprintf "%s [%s] tee order" name lane) log_r log)
        [ ("default thresholds", None); ("hot", Some hot); ("never compiling", Some Jit.never) ])
    cases

(* --- the per-image code cache ----------------------------------------- *)

let genprog_image ~funcs =
  Pipeline.compile ~seed:5 (D.full ()) (Genprog.generate ~seed:5 ~funcs)

let run_process img =
  let p = Process.start ~jit:true ~fuel img in
  let o = Process.run p in
  let st = Option.get (Process.jit_stats p) in
  ( Printf.sprintf "%s|cycles:%Lx|insns:%d|imiss:%d|iacc:%d|out:%s"
      (Process.outcome_to_string o)
      (Int64.bits_of_float (Process.cycles p))
      (Process.insns p) (Process.icache_misses p) (Process.icache_accesses p)
      (Process.output p),
    st )

(* The second process of an image compiles nothing: it runs the code the
   first one compiled, adopting each function it enters. *)
let test_shared_cache () =
  let img = genprog_image ~funcs:60 in
  let fp1, st1 = run_process img in
  let fp2, st2 = run_process img in
  Alcotest.(check string) "same run" fp1 fp2;
  Alcotest.(check bool) "the first process compiled" true (st1.Jit.compiled > 0);
  Alcotest.(check int) "the second compiled nothing" 0 st2.Jit.compiled;
  Alcotest.(check bool) "and adopted the first one's code" true (st2.Jit.revalidated > 0);
  Alcotest.(check bool) "and ran it" true (st2.Jit.tier3_insns > st1.Jit.tier3_insns)

(* With the JIT off, a warm image cache is never entered. *)
let test_jit_off_never_compiled () =
  let img = genprog_image ~funcs:60 in
  let reference = fp_reference img in
  let warm = load img in
  ignore (Jit.attach ~config:hot warm);
  ignore (Cpu.run warm ~fuel);
  let cpu = load img in
  let st = Jit.fresh_stats () in
  ignore (Jit.attach ~config:Jit.never ~stats:st cpu);
  Alcotest.(check string) "never-compiling run" reference (fingerprint cpu (Cpu.run cpu ~fuel));
  Alcotest.(check int) "no compiled code ran" 0 st.Jit.tier3_insns;
  Alcotest.(check int) "no compiled code entered" 0 (st.Jit.entry_enters + st.Jit.osr_enters);
  Alcotest.(check int) "nothing compiled or adopted" 0 (st.Jit.compiled + st.Jit.revalidated);
  Alcotest.(check int) "every instruction cold" cpu.Cpu.insns st.Jit.interp_insns;
  let p = Process.start ~jit:false ~strict_align:true ~fuel img in
  ignore (Process.run p);
  Alcotest.(check bool) "a JIT-off process keeps no tier-3 counters" true
    (Process.jit_stats p = None);
  Alcotest.(check int) "and retires the same run" cpu.Cpu.insns (Process.insns p)

(* Processes of one fresh image in two domains at once compile into and
   run from one cache: each retires exactly the serial run. *)
let test_domains_share_cache () =
  let serial, _ = run_process (genprog_image ~funcs:200) in
  let img = genprog_image ~funcs:200 in
  let worker () = List.init 3 (fun _ -> fst (run_process img)) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  let fps = Domain.join d1 @ Domain.join d2 in
  List.iteri (fun i fp -> Alcotest.(check string) (Printf.sprintf "run %d" i) serial fp) fps

(* --- staleness: poisoned entries are invalidated, never executed ---- *)

(* A poisoned entry raises if it ever runs, so a run that completes never
   ran one. *)
let test_poisoned_cache () =
  let seed = 7001 + (137 * 3) in
  let img = Pipeline.compile ~seed (D.full ()) (Gen.v2 ~seed ()) in
  let reference = fp_reference img in
  let run () =
    let cpu = load img in
    let j = attach_hot cpu in
    (fingerprint cpu (Cpu.run cpu ~fuel), j)
  in
  let fp1, j1 = run () in
  Alcotest.(check string) "warm run" reference fp1;
  (* strand every cached entry the way an interrupted rerandomization
     would *)
  let poisoned =
    List.fold_left
      (fun acc (f : Image.func_info) ->
        if Jit.poison (fst j1) ~entry:f.Image.entry then acc + 1 else acc)
      0 (Array.to_list img.Image.funcs)
  in
  Alcotest.(check int) "every compiled entry poisoned" (snd j1).Jit.compiled poisoned;
  let fp2, j2 = run () in
  Alcotest.(check string) "post-poison run" reference fp2;
  let st = snd j2 in
  Alcotest.(check bool) "stale entries invalidated" true (st.Jit.invalidated >= 1);
  Alcotest.(check bool) "and recompiled fresh" true (st.Jit.compiled >= st.Jit.invalidated);
  Alcotest.(check int) "none adopted" 0 st.Jit.revalidated;
  let fp3, j3 = run () in
  Alcotest.(check string) "third run" reference fp3;
  Alcotest.(check int) "the fresh code is shared again" 0 (snd j3).Jit.compiled;
  (* The same for observed templates: derive them from the fresh code,
     poison every entry again, and run observed. A stale observed
     template raises as a stale plain one does, so an observed run that
     completes and matches the observed reference never ran one. *)
  let fp_r, seen_r, _ = observed_run ~tier3:false img in
  let fp_o, seen_o, _ = observed_run ~tier3:true img in
  Alcotest.(check string) "observed warm run" fp_r fp_o;
  Alcotest.(check bool) "observed warm run sees the reference" true (seen_r = seen_o);
  Array.iter (fun (f : Image.func_info) -> ignore (Jit.poison (fst j3) ~entry:f.Image.entry)) img.Image.funcs;
  let fp_p, seen_p, st = observed_run ~tier3:true img in
  Alcotest.(check string) "observed post-poison run" reference fp_p;
  Alcotest.(check bool) "observed post-poison run sees the reference" true (seen_r = seen_p);
  Alcotest.(check bool) "observed: stale entries invalidated" true (st.Jit.invalidated >= 1);
  Alcotest.(check int) "observed: none adopted" 0 st.Jit.revalidated

(* --- cache survival across incremental rerandomization -------------- *)

(* On the images' own caches: a rebuild at the same coordinates (a fresh
   Image.t placing the same bodies) adopts the healthy plans by body and
   recompiles a poisoned one; a rotated link seed runs the same bodies at
   a new layout. *)
let test_rerand_cache_reuse () =
  let p = Genprog.generate ~seed:5 ~funcs:24 in
  let cfg = D.full () in
  let coords ls = { Pipeline.cfg; body_seed = 3; link_seed = Some ls } in
  let r = Pipeline.rerand_create () in
  let img1, _ = Pipeline.compile_incremental r (coords 100) p in
  let img1b, _ = Pipeline.compile_incremental r (coords 100) p in
  let img2, _ = Pipeline.compile_incremental r (coords 101) p in
  let st = Jit.fresh_stats () in
  let run_jit img =
    let cpu = load img in
    let j = Jit.attach ~config:hot ~stats:st cpu in
    (fingerprint cpu (Cpu.run cpu ~fuel), j)
  in
  let fp1, j1 = run_jit img1 in
  Alcotest.(check string) "variant ls=100" (fp_reference img1) fp1;
  let first_entry = img1.Image.funcs.(0).Image.entry in
  let could_poison = Jit.poison j1 ~entry:first_entry in
  let fp1b, _ = run_jit img1b in
  Alcotest.(check string) "same coords, same bodies" (fp_reference img1b) fp1b;
  Alcotest.(check bool) "healthy plans adopted by body" true (st.Jit.revalidated >= 1);
  if could_poison then
    Alcotest.(check bool) "poisoned plan invalidated" true (st.Jit.invalidated >= 1);
  let fp2, _ = run_jit img2 in
  Alcotest.(check string) "rotated variant ls=101" (fp_reference img2) fp2

(* A private cache serves the image and profile it was made for: attaching
   it to another image, or under another cost profile, is refused. *)
let test_private_cache_one_image () =
  let p = Genprog.generate ~seed:5 ~funcs:8 in
  let coords ls = { Pipeline.cfg = D.full (); body_seed = 3; link_seed = Some ls } in
  let r = Pipeline.rerand_create () in
  let img1, _ = Pipeline.compile_incremental r (coords 100) p in
  let img2, _ = Pipeline.compile_incremental r (coords 101) p in
  let cache = Jit.create_cache ~profile:Cost.epyc_rome img1 in
  let refused what cpu =
    match Jit.attach ~cache cpu with
    | _ -> Alcotest.failf "%s: attached" what
    | exception Invalid_argument _ -> ()
  in
  refused "another image" (load img2);
  refused "another profile" (Loader.load ~jit:false ~profile:Cost.i9_9900k img1);
  let cpu = load img1 in
  ignore (Jit.attach ~config:hot ~cache cpu);
  Alcotest.(check string) "its own image" (fp_reference img1) (fingerprint cpu (Cpu.run cpu ~fuel))

(* --- rotated placements: execution state derived once per body ------- *)

(* The rerandomization battery's placements of one program: a warm build
   at link seed 100, then rotations 101-104 placing the same bodies. *)
let rotation_battery () =
  let p = Genprog.generate ~seed:5 ~funcs:24 in
  let coords ls = { Pipeline.cfg = D.full (); body_seed = 3; link_seed = Some ls } in
  let r = Pipeline.rerand_create () in
  List.map (fun ls -> (ls, fst (Pipeline.compile_incremental r (coords ls) p))) [ 100; 101; 102; 103; 104 ]

(* Each rotated image on the reference tier, on tier 3 never compiling
   (what R2C_JIT=0 attaches), on tier 3 compiling into the images' own
   caches, observed too, and as a process on the default tier: every
   placement after the first compiles nothing and runs the code
   instantiated from the first one's plans. *)
let test_rotated_placements () =
  List.iteri
    (fun k (ls, img) ->
      let name = Printf.sprintf "link seed %d" ls in
      let reference = fp_reference img in
      let never =
        let cpu = load img in
        ignore (Jit.attach ~config:Jit.never cpu);
        fingerprint cpu (Cpu.run cpu ~fuel)
      in
      Alcotest.(check string) (name ^ " [never compiling]") reference never;
      let t3, st = fp_tier3 ~inputs:[] img in
      Alcotest.(check string) (name ^ " [tier3]") reference t3;
      Alcotest.(check bool) (name ^ " [ran compiled]") true (st.Jit.tier3_insns > 0);
      if k = 0 then Alcotest.(check bool) (name ^ " [compiled]") true (st.Jit.compiled > 0)
      else begin
        Alcotest.(check int) (name ^ " [compiled nothing]") 0 st.Jit.compiled;
        Alcotest.(check bool) (name ^ " [adopted plans]") true (st.Jit.revalidated > 0)
      end;
      ignore (check_observed ~inputs:[] name img ~reference);
      (* the default tier of a process: compiling, or not under R2C_JIT=0 *)
      let p = Process.start ~strict_align:true ~fuel img in
      let r =
        match Process.run p with
        | Process.Exited _ -> Cpu.Halted
        | Process.Crashed f -> Cpu.Faulted f
        | Process.Timeout -> Cpu.Fuel_exhausted
      in
      Alcotest.(check string) (name ^ " [process default tier]") reference
        (fingerprint p.Process.cpu r))
    (rotation_battery ())

(* Instruction counts at which the reference run's next instruction lies
   in another chunk than the last one, with the rip there. *)
let chunk_boundaries img ~limit =
  let cpu = load img in
  let d = Image.predecoded img in
  let cur = ref (Image.locate d cpu.Cpu.rip) and acc = ref [] in
  let rec go n =
    if n < limit && not cpu.Cpu.halted then
      match Cpu.run_reference cpu ~fuel:1 with
      | Cpu.Fuel_exhausted ->
          let ci = Image.locate d cpu.Cpu.rip in
          if ci <> !cur then acc := (n + 1, cpu.Cpu.rip) :: !acc;
          cur := ci;
          go (n + 1)
      | _ -> ()
  in
  go 0;
  List.rev !acc

(* A rotated placement adopting code from the one before it, cut by fuel
   mid-chunk and exactly where the next instruction starts another chunk,
   lands on one uninterrupted reference run, and stops at every boundary
   cut where the reference does. *)
let rotated_battery =
  lazy
    (let p = Genprog.generate ~seed:8 ~funcs:24 in
     let r = Pipeline.rerand_create () in
     let img ls =
       fst (Pipeline.compile_incremental r { Pipeline.cfg = D.full (); body_seed = 2; link_seed = Some ls } p)
     in
     ignore (fp_tier3 ~inputs:[] (img 1));
     img)

let prop_rotated_fuel_cuts =
  Q.Test.make ~count:12
    ~name:"jit: rotated placement cut mid-chunk and at chunk boundaries == reference"
    Q.(triple (int_range 2 10_000) (small_list (int_range 1 3_000)) (small_list (int_range 0 400)))
    (fun (ls, mids, picks) ->
      let img = (Lazy.force rotated_battery) ls in
      let reference, total =
        let cpu = load img in
        let r = Cpu.run_reference cpu ~fuel in
        (fingerprint cpu r, cpu.Cpu.insns)
      in
      let bounds = Array.of_list (chunk_boundaries img ~limit:total) in
      let at_bound =
        if Array.length bounds = 0 then [] else List.map (fun k -> bounds.(k mod Array.length bounds)) picks
      in
      let stops =
        List.sort_uniq compare
          (List.map fst at_bound @ List.filter (fun n -> n < total) (List.map (fun m -> m * 7) mids))
      in
      let cpu = load img in
      let _, st = attach_hot cpu in
      let rips_ok = ref true and result = ref Cpu.Fuel_exhausted in
      let last =
        List.fold_left
          (fun at stop ->
            (match !result with
            | Cpu.Fuel_exhausted -> (
                result := Cpu.run cpu ~fuel:(stop - at);
                match List.assoc_opt stop at_bound with
                | Some rip when !result = Cpu.Fuel_exhausted -> if cpu.Cpu.rip <> rip then rips_ok := false
                | _ -> ())
            | _ -> ());
            stop)
          0 stops
      in
      if !result = Cpu.Fuel_exhausted then result := Cpu.run cpu ~fuel:(fuel - last);
      String.equal reference (fingerprint cpu !result)
      && !rips_ok
      && st.Jit.tier3_insns > 0)

(* Code one placement adopted from another's plan, poisoned through the
   adopting attachment: it is invalidated and recompiled, never run, and
   the placement that compiled the plan keeps running its own code. *)
let test_poison_adopted () =
  match rotation_battery () with
  | (_, first) :: (_, second) :: _ ->
      let run img =
        let cpu = load img in
        let j = attach_hot cpu in
        (fingerprint cpu (Cpu.run cpu ~fuel), j)
      in
      let fp1, j1 = run first in
      Alcotest.(check string) "first placement" (fp_reference first) fp1;
      let fp2, j2 = run second in
      Alcotest.(check string) "second placement" (fp_reference second) fp2;
      Alcotest.(check int) "second placement compiled nothing" 0 (snd j2).Jit.compiled;
      let poisoned =
        Array.fold_left
          (fun n (f : Image.func_info) -> if Jit.poison (fst j2) ~entry:f.Image.entry then n + 1 else n)
          0 second.Image.funcs
      in
      Alcotest.(check int) "every adopted plan poisoned" (snd j1).Jit.compiled poisoned;
      let fp3, j3 = run second in
      Alcotest.(check string) "post-poison run" (fp_reference second) fp3;
      let st = snd j3 in
      Alcotest.(check bool) "stale plans invalidated" true (st.Jit.invalidated >= 1);
      Alcotest.(check bool) "and recompiled" true (st.Jit.compiled >= st.Jit.invalidated);
      Alcotest.(check int) "none adopted" 0 st.Jit.revalidated;
      let fp4, _ = run first in
      Alcotest.(check string) "the compiling placement still runs" (fp_reference first) fp4
  | _ -> assert false

let suite =
  [
    ( "jit",
      [
        Alcotest.test_case "25 pinned-seed programs, three tiers" `Quick
          test_generated_programs;
        Alcotest.test_case "corpus replay, three tiers" `Quick test_corpus_replay;
        Alcotest.test_case "replay corpus, three tiers" `Quick test_replay_corpus;
        Alcotest.test_case "OSR entry at loop heads" `Quick test_osr_entry;
        Alcotest.test_case "fault equality in hot code" `Quick test_fault_equality;
        Alcotest.test_case "builtin taps under tier 3" `Quick test_builtin_tap;
        Alcotest.test_case "observed first: compiled under an observer" `Quick
          test_observed_first;
        QCheck_alcotest.to_alcotest prop_deopt_storm;
        Alcotest.test_case "profiled lanes: 12 Spec programs" `Quick test_profiled_spec;
        Alcotest.test_case "profiled lanes: rotated 2,000-function genprog" `Quick
          test_profiled_rotated_genprog;
        Alcotest.test_case "tee order and post-mortem tails, every lane" `Quick
          test_tee_order_and_post_mortem;
        Alcotest.test_case "two processes of one image share its code cache" `Quick
          test_shared_cache;
        Alcotest.test_case "JIT off never enters a warm image cache" `Quick
          test_jit_off_never_compiled;
        Alcotest.test_case "two domains share one fresh image's cache" `Quick
          test_domains_share_cache;
        Alcotest.test_case "poisoned cache invalidated, not executed" `Quick
          test_poisoned_cache;
        Alcotest.test_case "cache reuse across incremental rerandomization" `Quick
          test_rerand_cache_reuse;
        Alcotest.test_case "private cache serves one image and profile" `Quick
          test_private_cache_one_image;
        Alcotest.test_case "rotated placements, every lane" `Quick test_rotated_placements;
        QCheck_alcotest.to_alcotest prop_rotated_fuel_cuts;
        Alcotest.test_case "poisoned adopted code invalidated, not executed" `Quick
          test_poison_adopted;
      ] );
  ]
