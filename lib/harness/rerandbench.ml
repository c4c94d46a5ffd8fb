module Genprog = R2c_workloads.Genprog
module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Incremental = R2c_compiler.Incremental
module Image = R2c_machine.Image
module Process = R2c_machine.Process
module Loader = R2c_machine.Loader
module Mem = R2c_machine.Mem
module Addr = R2c_machine.Addr
module Cost = R2c_machine.Cost
module Stats = R2c_util.Stats

type report = {
  funcs : int;
  config : string;
  body_seed : int;
  base_link_seed : int;
  rotations : int;
  checked : int;
  identical : bool;
  loaded_identical : bool;
  warm_misses : int;
  rotation_hits : int;
  rotation_misses : int;
  edit_misses : int;
  edit_missed : string list;
  edit_identical : bool;
  cache_entries : int;
}

type timing = {
  cold_ms : float;
  incr_ms : float;
  start_ms : float;
  speedup : float;
  first_run_ms : float;
  warm_rerun_ms : float;
}

(* The single-function IR edit of the edit-step: one more local variable.
   It grows the function's frame, so the recompiled body genuinely
   differs, and it perturbs no other function's diversification slice —
   the rebuild must miss exactly this function. *)
let edit_one (p : Ir.program) =
  let victim = List.nth p.funcs (List.length p.funcs / 2) in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        if f == victim then { f with Ir.nvars = f.nvars + 1 } else f)
      p.funcs
  in
  ({ p with Ir.funcs }, victim.Ir.name)

let now () = Unix.gettimeofday ()

(* The text pages of [img] as a freshly loaded process maps them, read
   back permission-free (full-R2C text is execute-only). *)
let loaded_text (img : Image.t) =
  let cpu = Loader.load ~jit:false ~profile:Cost.epyc_rome img in
  let len = Addr.align_up (max img.text_len Addr.page_size) ~align:Addr.page_size in
  String.init len (fun i ->
      match Mem.peek_u8 cpu.R2c_machine.Cpu.mem (img.text_base + i) with
      | Some b -> Char.chr b
      | None -> invalid_arg "rerandbench: text page unmapped")

let run ?(funcs = 10_000) ?(config = "full") ?(body_seed = 3) ?(base_link_seed = 100)
    ?(rotations = 4) ?(checked = 2) ?jobs () =
  let cfg =
    match Dconfig.of_name config with Ok c -> c | Error e -> invalid_arg ("rerandbench: " ^ e)
  in
  let p = Genprog.generate ~seed:body_seed ~funcs in
  let coords ls = { Pipeline.cfg; body_seed; link_seed = Some ls } in
  (* Each timed region starts from a collected heap: the untimed
     reference compiles and fingerprint forcings between them leave tens
     of megabytes of garbage, and without the barrier the next timed
     build pays the previous phase's collection debt. *)
  let settle () = Gc.full_major () in
  (* Cold reference at the base coordinates. *)
  settle ();
  let t0 = now () in
  let cold = Pipeline.compile_cold (coords base_link_seed) p in
  let cold_ms = (now () -. t0) *. 1000.0 in
  let cold_fp = Image.fingerprint cold in
  (* Warm build: populates the cache (every function misses once). *)
  let r = Pipeline.rerand_create () in
  let warm, warm_stats = Pipeline.compile_incremental ?jobs r (coords base_link_seed) p in
  let warm_fp = Image.fingerprint warm in
  (* Steady-state rotations: only the link seed moves. *)
  let rot_hits = ref 0 and rot_misses = ref 0 in
  let incr_total = ref 0.0 and start_total = ref 0.0 in
  let identical = ref (String.equal warm_fp cold_fp) in
  let loaded_identical = ref true in
  (* The last two rotations' first runs, each after the placement before
     it ran (as a fleet's previous layout has), against reruns of the same
     images: the first pays for whatever a placement does not share with
     the one before it. *)
  let run_ms img =
    settle ();
    let p = Process.start img in
    let t0 = now () in
    ignore (Process.run p);
    (now () -. t0) *. 1000.0
  in
  let timed_from = max 1 (rotations - 1) in
  if timed_from = 1 then ignore (run_ms warm);
  let firsts = ref [] and reruns = ref [] in
  for i = 1 to rotations do
    let c = coords (base_link_seed + i) in
    settle ();
    let t0 = now () in
    let img, stats = Pipeline.compile_incremental ?jobs r c p in
    let t1 = now () in
    ignore (Sys.opaque_identity (Process.start img));
    incr_total := !incr_total +. ((t1 -. t0) *. 1000.0);
    start_total := !start_total +. ((now () -. t1) *. 1000.0);
    rot_hits := !rot_hits + stats.Incremental.hits;
    rot_misses := !rot_misses + stats.Incremental.misses;
    (* Differential spot checks: a cold compile at sampled rotation
       coordinates must fingerprint-match the incremental rebuild, and
       load to the same text pages. *)
    if i <= checked then begin
      let cold_i = Pipeline.compile_cold c p in
      if not (String.equal (Image.fingerprint cold_i) (Image.fingerprint img)) then
        identical := false;
      if not (String.equal (loaded_text cold_i) (loaded_text img)) then loaded_identical := false
    end;
    if i = timed_from - 1 then ignore (run_ms img)
    else if i >= timed_from then begin
      firsts := run_ms img :: !firsts;
      reruns := run_ms img :: !reruns
    end
  done;
  let incr_ms = !incr_total /. float_of_int (max 1 rotations) in
  let start_ms = !start_total /. float_of_int (max 1 rotations) in
  let first_run_ms = Stats.median !firsts and warm_rerun_ms = Stats.median !reruns in
  (* Edit step: one function's IR changes; the rebuild recompiles it and
     nothing else, and still matches a cold compile of the edited
     program. *)
  let p2, _victim = edit_one p in
  let c2 = coords (base_link_seed + rotations + 1) in
  let img2, stats2 = Pipeline.compile_incremental ?jobs r c2 p2 in
  let edit_identical =
    String.equal (Image.fingerprint (Pipeline.compile_cold c2 p2)) (Image.fingerprint img2)
  in
  let report =
    {
      funcs;
      config;
      body_seed;
      base_link_seed;
      rotations;
      checked;
      identical = !identical;
      loaded_identical = !loaded_identical;
      warm_misses = warm_stats.Incremental.misses;
      rotation_hits = !rot_hits;
      rotation_misses = !rot_misses;
      edit_misses = stats2.Incremental.misses;
      edit_missed = stats2.Incremental.missed;
      edit_identical;
      cache_entries = Incremental.size (Pipeline.rerand_cache r);
    }
  in
  let timing =
    {
      cold_ms;
      incr_ms;
      start_ms;
      speedup = (if incr_ms > 0.0 then cold_ms /. incr_ms else 0.0);
      first_run_ms;
      warm_rerun_ms;
    }
  in
  (report, timing)

(* The E-RERAND gate. Timing binds only when given: CI gates the
   measured run on the 10x floor; the deterministic half (identity,
   cache traffic) also guards the test battery. *)
let gate ?(min_speedup = 10.0) ?timing r =
  let checks =
    [
      ("identity", "byte-identical to cold compile at every checked rotation", r.identical);
      ( "identity",
        "loaded text pages identical to a cold compile's at every checked rotation",
        r.loaded_identical );
      ("identity", "edit rebuild byte-identical to cold compile", r.edit_identical);
      ("cache", "warm build compiles every function once", r.warm_misses >= r.funcs);
      ("cache", "rotations hit the cache for every function", r.rotation_misses = 0);
      ( "cache",
        "edit rebuild recompiles exactly one function",
        r.edit_misses = 1 && List.length r.edit_missed = 1 );
    ]
    @
    match timing with
    | None -> []
    | Some t ->
        [
          ( "speedup",
            Printf.sprintf "incremental rebuild >= %.0fx faster than cold (got %.1fx)"
              min_speedup t.speedup,
            t.speedup >= min_speedup );
        ]
  in
  Gate.failed checks

let results (r, t) =
  let open Results in
  let timed key digits v = field ~kind:Timed key (Float (Printf.sprintf "%.*f" digits, v)) in
  List.map
    (fun (key, v) -> field key v)
    [
      ("funcs", Int r.funcs);
      ("config", Str r.config);
      ("body_seed", Int r.body_seed);
      ("base_link_seed", Int r.base_link_seed);
      ("rotations", Int r.rotations);
      ("checked", Int r.checked);
      ("identical", Bool r.identical);
      ("loaded_identical", Bool r.loaded_identical);
      ("warm_misses", Int r.warm_misses);
      ("rotation_hits", Int r.rotation_hits);
      ("rotation_misses", Int r.rotation_misses);
      ("edit_misses", Int r.edit_misses);
      ("edit_missed", Strs r.edit_missed);
      ("edit_identical", Bool r.edit_identical);
      ("cache_entries", Int r.cache_entries);
    ]
  @ [
      timed "cold_ms" 0 t.cold_ms;
      timed "incr_ms" 1 t.incr_ms;
      timed "start_ms" 1 t.start_ms;
      timed "speedup" 1 t.speedup;
      timed "first_run_ms" 1 t.first_run_ms;
      timed "warm_rerun_ms" 1 t.warm_rerun_ms;
    ]
