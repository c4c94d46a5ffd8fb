(* The repository benchmark.

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
     bash perfbench/run.sh compare A.jsonl B.jsonl
     bash perfbench/run.sh selftest

   A run sets the workload up 5 to 25 times (set-up time is their median),
   measures for S seconds, checks every output, and prints one JSON object
   as the last line of standard output: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. End-to-end host
   timings are reported at nominal host speed (see Calib); per-layer ones
   raw, next to the run's measured host speed. Each run also
   appends a line with both metric sets and its settings to
   perfbench/out/results.jsonl; [compare] reads two such files. A traced
   run also writes its spans to perfbench/out/trace-W-N.json (Chrome
   trace_event, host microseconds) and prints the self-time accounting
   table to standard error. The exit code is 0 only when every check
   passed. *)

module W = Work

let out_dir = Filename.concat "perfbench" "out"

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_num x.value) x.unit_)
         ms)
  ^ "}"

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                    Some (float_of_int kb /. 1024.0))
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let fsum = List.fold_left ( +. ) 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Host timings are scaled to nominal host speed ([speed], see Calib);
   [~speed:1.0] gives them raw. [setup_s] comes already scaled or raw. *)
let end_to_end (s : W.samples) ~setup_s ~sim_overhead ~speed =
  let time v = v *. speed and rate v = v /. speed in
  let submits = !(s.W.submit_us) in
  [
    m "setup_s" "s" setup_s;
    m "compile_cold_s" "s" (time (Stats.median !(s.W.compile_s)));
    m "rotate_p50_ms" "ms" (time (Stats.median !(s.W.rotate_ms)));
    m "rotate_tail_ms" "ms" (time (Stats.windowed_tail !(s.W.rotate_ms)));
    m "exec_mips" "Minsn/s" (rate (W.mips s.W.exec_runs));
    m "profiled_mips" "Minsn/s" (rate (W.mips s.W.prof_runs));
    m "sim_overhead_geomean" "ratio" sim_overhead;
    m "serve_rps" "1/s" (rate (ratio (float_of_int (List.length submits)) (fsum submits /. 1e6)));
    m "serve_p50_us" "us" (time (Stats.median submits));
    m "serve_tail_us" "us" (time (Stats.windowed_tail submits));
    m "serve_sim_p99_cycles" "cycles" (Stats.percentile 99.0 !(s.W.served_cycles));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let per_layer (st : W.state) (s : W.samples) ~gc0 ~gc1 =
  let ds = List.rev !(s.W.decomposed) in
  let med f = Stats.median (List.map (fun d -> Array.fold_left (fun a x -> a +. f x) 0.0 d) ds) in
  let phase k = med (fun d -> d.W.d_ms.(k)) in
  let emit_ms = phase 2 in
  let first f = match ds with d :: _ -> float_of_int (Array.fold_left (fun a x -> a + f x) 0 d) | [] -> 0.0 in
  let hits = float_of_int !(s.W.hits) and misses = float_of_int !(s.W.misses) in
  let jit = s.W.jit in
  let probe = W.probe s in
  let fstats = W.Fleet.stats st.W.fleet and pool = W.Fleet.pool_totals st.W.fleet in
  let builds = !(st.W.builds) in
  let probe_mips key = ratio (probe (key ^ ".insns")) (probe (key ^ ".ms")) /. 1000.0 in
  let i x = float_of_int x in
  [
    m "ir.validate.ms" "ms" (phase 1);
    m "core.instrument.ms" "ms" (phase 0);
    m "compiler.emit.ms" "ms" emit_ms;
    m "compiler.emit.funcs" "count" (first (fun d -> d.W.d_funcs));
    m "compiler.emit.insns" "count" (first (fun d -> d.W.d_insns));
    m "compiler.regalloc.ms" "ms" (med (fun d -> d.W.d_regalloc_ms));
    m "compiler.regalloc.emit_share" "ratio" (ratio (med (fun d -> d.W.d_regalloc_ms)) emit_ms);
    m "compiler.link.ms" "ms" (phase 3);
    m "compiler.link.text_bytes" "bytes" (first (fun d -> d.W.d_img.W.Image.text_len));
    (* How much of a cold compile the four phases leave unexplained
       (either way), median over adjacent cold/decomposed pairs. *)
    m "compiler.unattributed_share" "ratio" (Stats.median !(s.W.unattributed));
    m "compiler.incremental.warm_ms" "ms" st.W.warm_ms;
    m "compiler.incremental.edit_ms" "ms" !(s.W.edit_ms);
    m "compiler.incremental.hits" "count" hits;
    m "compiler.incremental.misses" "count" misses;
    m "compiler.incremental.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "machine.loader.ms" "ms" (Stats.median !(s.W.loader_ms));
    m "machine.loader.calls" "count" (i (List.length !(s.W.loader_ms)));
    m "machine.predecode.ms" "ms" (probe "machine.predecode");
    m "machine.jit.compiled" "count" (i jit.W.Jit.compiled);
    m "machine.jit.osr_enters" "count" (i jit.W.Jit.osr_enters);
    m "machine.jit.deopts" "count" (i jit.W.Jit.deopts);
    m "machine.jit.tier3_share" "ratio"
      (ratio (i jit.W.Jit.tier3_insns) (i (jit.W.Jit.tier3_insns + jit.W.Jit.interp_insns)));
    m "machine.jit.compile_ms" "ms" (probe "machine.jit.cold.ms" -. probe "machine.jit.warm.ms");
    m "machine.cpu.ref_mips" "Minsn/s" (probe_mips "machine.cpu.ref");
    m "machine.cpu.fast_mips" "Minsn/s" (probe_mips "machine.cpu.fast");
    (* Observed dispatch cost over unobserved reference dispatch, per
       instruction: the observer's own share of profiled_mips. *)
    m "obs.profile.overhead" "ratio" (ratio (probe_mips "machine.cpu.ref") (W.mips s.W.prof_runs));
    m "replay.check.ms" "ms" (Stats.median !(s.W.replay_ms));
    m "runtime.pool.build.ms" "ms" (fsum builds);
    m "runtime.pool.build.calls" "count" (i (List.length builds));
    m "runtime.pool.crashes" "count" (i pool.W.Pool.crashes);
    m "runtime.pool.rerandomizations" "count" (i pool.W.Pool.rerandomizations);
    m "runtime.pool.retries" "count" (i pool.W.Pool.retried);
    m "runtime.fleet.hedges" "count" (i fstats.W.Fleet.hedges);
    m "runtime.fleet.shed" "count" (i fstats.W.Fleet.shed);
    m "runtime.fleet.quarantines" "count" (i fstats.W.Fleet.quarantines);
    m "runtime.fleet.rotations" "count" (i fstats.W.Fleet.rotations);
    m "runtime.fleet.rotation_drops" "count" (i fstats.W.Fleet.rotation_drops);
    m "gc.minor_mwords" "Mwords" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
    m "gc.major_collections" "count" (i (gc1.Gc.major_collections - gc0.Gc.major_collections));
    m "trace.overhead_ratio" "ratio"
      (ratio (Stats.median !(s.W.rotate_spans_on_ms)) (Stats.median !(s.W.rotate_spans_off_ms)));
    m "trace.spans" "count" (i (List.length (Span.all ())));
    m "trace.flagged_parents" "count" (i (List.length (Span.flagged ())));
    m "host.kernel_ms" "ms" (Stats.median !Calib.samples);
    m "host.speed" "ratio" (Calib.speed ());
  ]

(* ------------------------------------------------------------------ *)

let min_ops (w : W.workload) n_units = function
  | W.Compile -> 3
  | W.Rotate -> max 11 n_units
  | W.Exec | W.Profiled -> n_units
  | W.Serve -> if w.W.name = "fleet-chaos" then 2000 else 500

(* Set-ups per run: at least [setup_min], then more while they have taken
   less than [setup_budget_s] in all, up to [setup_max]. A quick set-up
   is thus repeated often enough for its median to hold still. *)
let setup_min = 5
let setup_max = 25
let setup_budget_s = 2.0

let run_workload (w : W.workload) ~seed ~seconds ~traced =
  (* The Domain pool is pinned to at most two workers, never more than
     the machine's cores; every parallel fan-out below gets this width. *)
  let width = max 1 (min 2 (Domain.recommended_domain_count ())) in
  Unix.putenv "R2C_JOBS" (string_of_int width);
  Span.enabled := traced;
  (* Only the last set-up is kept; each earlier one is garbage before
     the next starts. *)
  let last = ref None in
  (* Set-up runs before the measured phase, so it is scaled to nominal
     speed by the kernel timed around each set-up, not by the run's. *)
  let kernel = ref [] in
  let once () =
    last := None;
    Gc.full_major ();
    kernel := Calib.kernel_ms () :: !kernel;
    let t0 = Span.now_ns () in
    last := Some (W.setup w ~seed ~width);
    let s = Span.ms_between t0 (Span.now_ns ()) /. 1000.0 in
    kernel := Calib.kernel_ms () :: !kernel;
    s
  in
  let rec setups acc n =
    if n >= setup_max || (n >= setup_min && List.fold_left ( +. ) 0.0 acc >= setup_budget_s) then acc
    else setups (once () :: acc) (n + 1)
  in
  let setup_raw = Stats.median (setups [] 0) in
  let setup_scaled = setup_raw *. Calib.nominal_ms /. Stats.median !kernel in
  let st = Option.get !last in
  (* Measurement starts from a compact heap. *)
  Gc.compact ();
  let s = W.fresh_samples () in
  let n_units = Array.length st.W.units in
  let gc0 = Gc.quick_stat () in
  W.interleave ~seconds
    (List.map
       (fun (stage, share) ->
         let step =
           match stage with
           | W.Compile -> W.stage_compile st s ~traced
           | W.Rotate -> W.stage_rotate st s ~traced ~width
           | W.Exec -> W.stage_exec st s
           | W.Profiled -> W.stage_profiled st s
           | W.Serve -> W.stage_serve st s
         in
         (W.stage_name stage, share, min_ops w n_units stage, step))
       w.W.shares);
  Span.with_ ~structural:true "stage.edit" (fun () -> W.stage_edit st s ~width);
  if traced then Span.with_ ~structural:true "stage.tiers" (fun () -> W.probe_tiers st s);
  Span.with_ ~structural:true "stage.replay" (fun () -> W.stage_replay s);
  let gc1 = Gc.quick_stat () in
  Span.enabled := false;
  W.post_checks st s;
  let sim_overhead = W.sim_overhead st in
  let e2e = end_to_end s ~setup_s:setup_scaled ~sim_overhead ~speed:(Calib.speed ()) in
  let raw = end_to_end s ~setup_s:setup_raw ~sim_overhead ~speed:1.0 in
  let layers = if traced then per_layer st s ~gc0 ~gc1 else [] in
  List.iter
    (fun x -> W.check (x.name ^ " is a finite number") (Float.is_finite x.value))
    (e2e @ layers);
  (st, width, e2e, raw, layers)

let write_results ~(w : W.workload) ~seed ~seconds ~traced ~width ~units result e2e raw layers =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 (Filename.concat out_dir "results.jsonl")
  in
  Printf.fprintf oc
    "{\"workload\": %S, \"why\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"width\": %d, \"programs\": [%s], \"host_speed\": %s, \"end_to_end\": %s, \"end_to_end_raw\": %s, \
     \"per_layer\": %s, \"result\": %s}\n"
    w.W.name w.W.why seed (json_num seconds) (if traced then 1 else 0) width
    (String.concat ", " (List.map (fun (n, f) -> Printf.sprintf "{\"name\": %S, \"funcs\": %d}" n f) units))
    (json_num (Calib.speed ())) (json_metrics e2e) (json_metrics raw) (json_metrics layers) result;
  close_out oc

let usage () =
  prerr_endline
    "usage: bench --workload W --seed N --seconds S --trace 0|1\n\
    \       bench compare A.jsonl B.jsonl\n\
    \       bench selftest";
  exit 2

let () =
  (match Stats.self_check () with
  | [] -> ()
  | errors ->
      List.iter (Printf.eprintf "statistics self-check failed: %s\n") errors;
      exit 3);
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest" ] -> prerr_endline "statistics self-check: ok"
  | [ "compare"; a; b ] -> exit (Compare.run a b)
  | args ->
      let rec parse (w, seed, secs, tr) = function
        | "--workload" :: v :: rest -> parse (Some v, seed, secs, tr) rest
        | "--seed" :: v :: rest -> parse (w, int_of_string_opt v, secs, tr) rest
        | "--seconds" :: v :: rest -> parse (w, seed, float_of_string_opt v, tr) rest
        | "--trace" :: v :: rest -> parse (w, seed, secs, Some v) rest
        | [] -> (w, seed, secs, tr)
        | _ -> usage ()
      in
      let workload, seed, seconds, trace = parse (None, None, None, Some "0") args in
      let w, seed, seconds, traced =
        match (Option.bind workload W.find, seed, seconds, trace) with
        | Some w, Some seed, Some secs, Some ("0" | "1" as t) when secs > 0.0 -> (w, seed, secs, t = "1")
        | _ -> usage ()
      in
      let st, width, e2e, raw, layers = run_workload w ~seed ~seconds ~traced in
      let correct = W.tally.W.errors = [] in
      let shown = if traced then layers else e2e in
      let result =
        Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
          W.tally.W.attempted W.tally.W.failed (json_metrics shown)
      in
      let units =
        Array.to_list st.W.units |> List.map (fun u -> (u.W.uname, List.length u.W.prog.Ir.funcs))
      in
      write_results ~w ~seed ~seconds ~traced ~width ~units result e2e raw layers;
      Printf.eprintf "%s seed %d, %.0fs, Domain width %d, host speed %.3f, programs: %s\n" w.W.name
        seed seconds width (Calib.speed ())
        (String.concat ", " (List.map (fun (n, f) -> Printf.sprintf "%s (%d funcs)" n f) units));
      List.iter (fun x -> Printf.eprintf "  %-34s %16.4f %s\n" x.name x.value x.unit_) (e2e @ layers);
      if traced then begin
        Span.report stderr;
        let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" w.W.name seed) in
        Span.write_chrome path;
        Printf.eprintf "spans written to %s\n" path
      end;
      List.iter (Printf.eprintf "CHECK FAILED: %s\n") (List.rev W.tally.W.errors);
      print_endline result;
      exit (if correct then 0 else 1)
