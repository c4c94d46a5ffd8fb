module Dconfig = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
module Probability = R2c_core.Probability
module Boobytrap = R2c_core.Boobytrap
module Btra = R2c_core.Btra
module Stats = R2c_util.Stats
module Rng = R2c_util.Rng

type row = { label : string; overhead : float option; metric : string }

let subset = [ "perlbench"; "mcf"; "omnetpp"; "deepsjeng"; "nab" ]

let subset_overhead ~seed cfg =
  Stats.geomean
    (List.map
       (fun name ->
         let b = R2c_workloads.Spec.find name in
         let base =
           (Measure.run (R2c_compiler.Driver.compile b.program)).Measure.steady_cycles
         in
         (Measure.run (Pipeline.compile ~seed cfg b.program)).Measure.steady_cycles /. base)
       subset)

let btra ?(setup = Dconfig.Avx) ?(check = false) total =
  { Dconfig.total; setup; to_builtins = true; max_post = 4; check_after_return = check }

let btra_count ?(values = [ 2; 4; 6; 10; 16; 20 ]) ?(seed = 13) () =
  List.map
    (fun r ->
      let cfg = { Dconfig.btra_avx_only with btra = Some (btra r) } in
      {
        label = Printf.sprintf "R = %d" r;
        overhead = Some (subset_overhead ~seed cfg);
        metric =
          Printf.sprintf "guess p = %.4f, 4-chain p = %.2e"
            (Probability.guess_return_address ~btras:r)
            (Probability.guess_n_return_addresses ~btras:r ~n:4);
      })
    values

let setups ?(seed = 13) () =
  let mk label cfg metric = { label; overhead = Some (subset_overhead ~seed cfg); metric } in
  [
    mk "push" Dconfig.btra_push_only "Section 5.1 baseline sequence";
    mk "sse" Dconfig.btra_sse_only "Section 7.1 fallback (16-byte)";
    mk "avx2" Dconfig.btra_avx_only "the paper's optimized setup";
    mk "avx512" Dconfig.btra_avx512_only "Section 7.1: half the moves";
    mk "avx512 R=20"
      { Dconfig.btra_avx512_only with btra = Some (btra ~setup:Dconfig.Avx512 20) }
      "Section 7.1: twice the BTRAs instead";
    mk "avx2 + checks"
      { Dconfig.btra_avx_only with btra = Some (btra ~check:true 10) }
      "Section 7.3 consistency checks";
  ]

let btdp_density ?(values = [ 1; 3; 5; 8 ]) ?(seed = 13) () =
  List.map
    (fun mx ->
      let cfg =
        {
          Dconfig.btdp_only with
          btdp =
            Some
              {
                Dconfig.min_per_func = 0;
                max_per_func = mx;
                array_size = 48;
                guard_pages = 16;
                alloc_rounds = 64;
                decoys = 2;
                skip_frameless = true;
              };
        }
      in
      {
        label = Printf.sprintf "0-%d per function" mx;
        overhead = Some (subset_overhead ~seed cfg);
        metric =
          Printf.sprintf "E(B) per frame = %.1f"
            (Probability.expected_btdps_in_leak ~min_per_func:0 ~max_per_func:mx ~frames:1);
      })
    values

let guard_pages ?(values = [ 4; 16; 64 ]) ?(seed = 13) () =
  let program = (R2c_workloads.Spec.find "xz").R2c_workloads.Spec.program in
  let base_rss =
    (Measure.run (R2c_compiler.Driver.compile program)).Measure.maxrss_bytes
  in
  List.map
    (fun gp ->
      let cfg =
        {
          (Dconfig.full ()) with
          btdp =
            Some
              {
                Dconfig.min_per_func = 0;
                max_per_func = 5;
                array_size = 48;
                guard_pages = gp;
                alloc_rounds = gp * 4;
                decoys = 2;
                skip_frameless = true;
              };
        }
      in
      let rss = (Measure.run (Pipeline.compile ~seed cfg program)).Measure.maxrss_bytes in
      {
        label = Printf.sprintf "%d guard pages" gp;
        overhead = None;
        metric =
          Printf.sprintf "maxrss %+d KB (%.1f%%)" ((rss - base_rss) / 1024)
            (float_of_int (rss - base_rss) /. float_of_int base_rss *. 100.0);
      })
    values

(* Property C combinatorics: how often do two call sites end up with the
   identical BTRA set as the booby-trap pool shrinks? *)
let pool_size ?(values = [ 1; 2; 4; 16; 48 ]) ?(seed = 13) () =
  (* A bigger call-site population makes the combinatorics visible. *)
  let program = R2c_workloads.Genprog.generate ~seed:7 ~funcs:40 in
  List.map
    (fun count ->
      let rng = Rng.create seed in
      let _, targets = Boobytrap.generate rng ~count in
      let pool = Boobytrap.pool_of_targets targets in
      let metric =
        match Btra.build ~rng ~cfg:(btra ~setup:Dconfig.Push 10) ~pool program with
        | t ->
            let sets =
              Hashtbl.fold
                (fun _ (p : R2c_compiler.Opts.callsite_plan) acc ->
                  List.sort compare (p.pre_syms @ p.post_syms) :: acc)
                t.Btra.plans []
            in
            let n = List.length sets in
            let distinct = List.length (List.sort_uniq compare sets) in
            Printf.sprintf "%d/%d call-site sets distinct (%d targets in pool)" distinct n
              (Array.length targets)
        | exception Invalid_argument _ ->
            Printf.sprintf
              "pool of %d targets cannot even fill one site's distinct set (property A)"
              (Array.length targets)
      in
      { label = Printf.sprintf "%d trap functions" count; overhead = None; metric })
    values

let call_overhead_correlation ?(seed = 13) () =
  let cfg = Dconfig.full () in
  let rows =
    List.map
      (fun (b : R2c_workloads.Spec.benchmark) ->
        let stats = Measure.run (R2c_compiler.Driver.compile b.program) in
        let oh =
          (Measure.run (Pipeline.compile ~seed cfg b.program)).Measure.steady_cycles
          /. stats.Measure.steady_cycles
        in
        (b.name, stats.Measure.calls, oh))
      (R2c_workloads.Spec.all ())
  in
  (* Correlate call *density* (calls per kilocycle), as the paper's
     reasoning does implicitly: absolute counts conflate run length. *)
  let calls = List.map (fun (_, c, _) -> float_of_int c) rows in
  let ohs = List.map (fun (_, _, o) -> o) rows in
  (Stats.pearson calls ohs, rows)

let run () =
  let open Results in
  let overhead o = pct (o -. 1.0) in
  let sweep key title rows =
    table key ~title
      [ left "configuration" "configuration"; left "overhead" "overhead"; left "metric" "metric" ]
      (List.map (fun r -> [ Str r.label; opt overhead r.overhead; Str r.metric ]) rows)
  in
  let sweeps =
    List.map
      (fun (key, title, rows) -> sweep key title (rows ()))
      [
        ("btra_count", "Ablation: BTRA count (security vs performance)", fun () -> btra_count ());
        ("setups", "Ablation: setup sequences (Sections 5.1, 7.1, 7.3)", fun () -> setups ());
        ("btdp_density", "Ablation: BTDP density", fun () -> btdp_density ());
        ("guard_pages", "Ablation: guard-page pool vs memory", fun () -> guard_pages ());
        ( "pool_size",
          "Ablation: booby-trap pool vs set reuse (property C)",
          fun () -> pool_size () );
      ]
  in
  let r, rows = call_overhead_correlation () in
  sweeps
  @ [
      table "call_frequency" ~title:"Call frequency vs overhead (Section 7.1)"
        [ left "benchmark" "benchmark"; left "calls" "calls"; left "overhead" "overhead" ]
        (List.map (fun (n, c, o) -> [ Str n; Int c; overhead o ]) rows);
      field "pearson_r" ~label:"Pearson r" (Float (Printf.sprintf "%.2f", r));
      Note
        "correlated but, as the paper notes, insufficient to predict\n\
         (perlbench has ~1/3 of omnetpp's calls yet comparable overhead).";
    ]
