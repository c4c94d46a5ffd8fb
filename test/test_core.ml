open R2c_machine
module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Btra = R2c_core.Btra
module Boobytrap = R2c_core.Boobytrap
module Probability = R2c_core.Probability
module Opts = R2c_compiler.Opts
module Rng = R2c_util.Rng

let interp_ref p =
  match Interp.run p with
  | Ok r -> r
  | Error e -> Alcotest.failf "reference interp failed: %s" (Interp.error_to_string e)

let check_differential ~cfg ~seed name p =
  let r = interp_ref p in
  let img = Pipeline.compile ~seed cfg p in
  let proc = Process.start ~strict_align:true img in
  (match Process.run proc with
  | Process.Exited code ->
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d: exit" name seed)
        r.Interp.exit_code code
  | other ->
      Alcotest.failf "%s seed %d (%s): compiled run %s" name seed (Dconfig.describe cfg)
        (Process.outcome_to_string other));
  Alcotest.(check string)
    (Printf.sprintf "%s seed %d: output" name seed)
    r.Interp.output (Process.output proc)

let configs =
  [
    ("full-avx", Dconfig.full ());
    ("full-push", Dconfig.full ~setup:Dconfig.Push ());
    ("push-only", Dconfig.btra_push_only);
    ("avx-only", Dconfig.btra_avx_only);
    ("btdp-only", Dconfig.btdp_only);
    ("prolog-only", Dconfig.prolog_only);
    ("layout-only", Dconfig.layout_only);
    ("oia-only", Dconfig.oia_only);
  ]

let test_differential_config (cname, cfg) () =
  List.iter
    (fun (name, p) ->
      List.iter (fun seed -> check_differential ~cfg ~seed (cname ^ "/" ^ name) p) [ 1; 7 ])
    Samples.all

let test_many_seeds_full () =
  (* One representative program across many seeds. *)
  let p = Samples.stack_args_prog in
  List.iter
    (fun seed -> check_differential ~cfg:(Dconfig.full ()) ~seed "stack_args" p)
    (List.init 10 (fun i -> i + 100))

let test_determinism () =
  let cfg = Dconfig.full () in
  let img1 = Pipeline.compile ~seed:5 cfg Samples.indirect_prog in
  let img2 = Pipeline.compile ~seed:5 cfg Samples.indirect_prog in
  Alcotest.(check int) "entry equal" img1.Image.entry img2.Image.entry;
  let sorted img =
    List.sort compare
      (List.map (fun (f : Image.func_info) -> (f.fname, f.entry)) (Array.to_list img.Image.funcs))
  in
  Alcotest.(check bool) "same layout" true (sorted img1 = sorted img2)

let test_seed_changes_layout () =
  let cfg = Dconfig.full () in
  let img1 = Pipeline.compile ~seed:1 cfg Samples.indirect_prog in
  let img2 = Pipeline.compile ~seed:2 cfg Samples.indirect_prog in
  let entry img name = Image.symbol img name in
  let moved =
    List.exists
      (fun (f : Image.func_info) ->
        (not f.is_booby_trap) && entry img2 f.fname <> f.entry)
      (Array.to_list img1.Image.funcs)
  in
  Alcotest.(check bool) "some function moved" true moved

let test_booby_traps_present_and_scattered () =
  let cfg = Dconfig.full () in
  let img = Pipeline.compile ~seed:3 cfg (Samples.fib_prog 10) in
  let bts = List.filter (fun (f : Image.func_info) -> f.is_booby_trap) (Array.to_list img.Image.funcs) in
  Alcotest.(check bool) "enough booby traps" true (List.length bts >= 16);
  (* Shuffling interleaves them: not all booby traps contiguous. *)
  let by_addr =
    List.sort
      (fun (a : Image.func_info) b -> compare a.entry b.entry)
      (Array.to_list img.Image.funcs)
  in
  let flags = List.map (fun (f : Image.func_info) -> f.is_booby_trap) by_addr in
  let transitions =
    let rec count = function
      | a :: (b :: _ as tl) -> (if a <> b then 1 else 0) + count tl
      | _ -> 0
    in
    count flags
  in
  Alcotest.(check bool) "interleaved" true (transitions >= 2)

let test_btra_pre_counts_even () =
  let p = Samples.stack_args_prog in
  let rng = Rng.create 11 in
  let _, targets = Boobytrap.generate rng ~count:32 in
  let pool = Boobytrap.pool_of_targets targets in
  let cfg = { Dconfig.total = 10; setup = Dconfig.Push; to_builtins = true; max_post = 4; check_after_return = false } in
  let t = Btra.build ~rng ~cfg ~pool p in
  Hashtbl.iter
    (fun (fname, site) (plan : Opts.callsite_plan) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s#%d pre even" fname site)
        true
        (List.length plan.pre_syms land 1 = 0))
    t.Btra.plans

let test_btra_post_matches_callee () =
  let p = (Samples.fib_prog 10) in
  let rng = Rng.create 13 in
  let _, targets = Boobytrap.generate rng ~count:32 in
  let pool = Boobytrap.pool_of_targets targets in
  let cfg = { Dconfig.total = 10; setup = Dconfig.Push; to_builtins = true; max_post = 4; check_after_return = false } in
  let t = Btra.build ~rng ~cfg ~pool p in
  (* fib calls fib twice: each direct site's post count must equal fib's
     post offset. *)
  let fib_post = Btra.post_offset t ~fname:"fib" in
  Alcotest.(check bool) "post in range" true (fib_post >= 1 && fib_post <= 4);
  List.iter
    (fun site ->
      match Btra.plan t ~fname:"fib" ~site with
      | Some plan ->
          Alcotest.(check int)
            (Printf.sprintf "fib#%d post" site)
            fib_post
            (List.length plan.post_syms)
      | None -> Alcotest.failf "fib#%d has no plan" site)
    [ 0; 1 ]

let test_btra_property_a_no_repeats_within_site () =
  let p = Samples.stack_args_prog in
  let rng = Rng.create 17 in
  let _, targets = Boobytrap.generate rng ~count:48 in
  let pool = Boobytrap.pool_of_targets targets in
  let cfg = { Dconfig.total = 10; setup = Dconfig.Push; to_builtins = true; max_post = 4; check_after_return = false } in
  let t = Btra.build ~rng ~cfg ~pool p in
  Hashtbl.iter
    (fun (fname, site) (plan : Opts.callsite_plan) ->
      let all = plan.pre_syms @ plan.post_syms in
      Alcotest.(check int)
        (Printf.sprintf "%s#%d distinct" fname site)
        (List.length all)
        (List.length (List.sort_uniq compare all)))
    t.Btra.plans

let test_btra_property_c_sets_differ_across_sites () =
  let p = Samples.stack_args_prog in
  let rng = Rng.create 19 in
  let _, targets = Boobytrap.generate rng ~count:64 in
  let pool = Boobytrap.pool_of_targets targets in
  let cfg = { Dconfig.total = 10; setup = Dconfig.Push; to_builtins = true; max_post = 4; check_after_return = false } in
  let t = Btra.build ~rng ~cfg ~pool p in
  let sets =
    Hashtbl.fold
      (fun _ (plan : Opts.callsite_plan) acc ->
        List.sort compare (plan.pre_syms @ plan.post_syms) :: acc)
      t.Btra.plans []
  in
  let distinct = List.length (List.sort_uniq compare sets) in
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d sets distinct" distinct (List.length sets))
    true
    (distinct = List.length sets)

let test_avx_arrays_are_multiple_of_4_words () =
  let p = (Samples.fib_prog 10) in
  let rng = Rng.create 23 in
  let _, targets = Boobytrap.generate rng ~count:48 in
  let pool = Boobytrap.pool_of_targets targets in
  let cfg = { Dconfig.total = 10; setup = Dconfig.Avx; to_builtins = true; max_post = 4; check_after_return = false } in
  let t = Btra.build ~rng ~cfg ~pool p in
  Alcotest.(check bool) "arrays exist" true (t.Btra.arrays <> []);
  List.iter
    (fun (g : Ir.global) ->
      Alcotest.(check int) (g.gname ^ " word multiple of 4") 0 (g.gsize / 8 mod 4);
      Alcotest.(check int) (g.gname ^ " fully initialised") g.gsize
        (Ir.init_footprint g.ginit))
    t.Btra.arrays

(* Run a full-R2C image to completion and inspect the BTDP runtime state. *)
let run_full_btdp () =
  let cfg = Dconfig.full () in
  let img = Pipeline.compile ~seed:9 cfg (Samples.loop_prog 20) in
  let proc = Process.start ~strict_align:true img in
  (match Process.run proc with
  | Process.Exited 0 -> ()
  | other -> Alcotest.failf "run failed: %s" (Process.outcome_to_string other));
  (img, proc)

let test_btdp_guard_pages_armed () =
  let _, proc = run_full_btdp () in
  let guards = Mem.guard_page_addrs proc.Process.cpu.Cpu.mem in
  Alcotest.(check int) "16 guard pages" 16 (List.length guards);
  List.iter
    (fun g ->
      Alcotest.(check bool) "guard page in heap" true (Addr.region_of g = Addr.Heap);
      Alcotest.(check bool) "no permissions" true
        (List.exists
           (fun (base, perm, _) -> base = g && perm = Perm.none)
           (Mem.page_perms proc.Process.cpu.Cpu.mem)))
    guards

let test_btdp_array_on_heap_pointer_in_data () =
  let img, proc = run_full_btdp () in
  let mem = proc.Process.cpu.Cpu.mem in
  let arrp_addr = Image.symbol img "__r2c_btdp_arrp" in
  Alcotest.(check bool) "slot in data" true (Addr.region_of arrp_addr = Addr.Data);
  match Mem.peek_u64 mem arrp_addr with
  | Some arr ->
      Alcotest.(check bool) "array on heap" true (Addr.region_of arr = Addr.Heap);
      (* Array entries point into guard pages. *)
      let guards = Mem.guard_page_addrs mem in
      for k = 0 to 7 do
        match Mem.peek_u64 mem (arr + (8 * k)) with
        | Some ptr ->
            Alcotest.(check bool)
              (Printf.sprintf "entry %d in a guard page" k)
              true
              (List.mem (Addr.page_base ptr) guards)
        | None -> Alcotest.fail "array unmapped"
      done
  | None -> Alcotest.fail "array pointer unmapped"

let test_btdp_decoys_distinct_from_array () =
  let img, proc = run_full_btdp () in
  let mem = proc.Process.cpu.Cpu.mem in
  let arr =
    match Mem.peek_u64 mem (Image.symbol img "__r2c_btdp_arrp") with
    | Some a -> a
    | None -> Alcotest.fail "no array"
  in
  let array_values = List.init 48 (fun k -> Mem.peek_u64 mem (arr + (8 * k))) in
  List.iter
    (fun d ->
      let decoy_addr = Image.symbol img (Printf.sprintf "__r2c_btdp_decoy_%d" d) in
      match Mem.peek_u64 mem decoy_addr with
      | Some v ->
          Alcotest.(check bool) "decoy in heap range" true (Addr.region_of v = Addr.Heap);
          Alcotest.(check bool) "decoy in a guard page" true
            (List.mem (Addr.page_base v) (Mem.guard_page_addrs mem));
          Alcotest.(check bool) "decoy not an array value" false
            (List.mem (Some v) array_values)
      | None -> Alcotest.fail "decoy unmapped")
    [ 0; 1 ]

let test_btdp_deref_detected () =
  (* A program that dereferences a BTDP from the array must trip a guard
     page and count as detection. *)
  let open Builder in
  let main = func "main" ~nparams:0 in
  let arrp = load main (Global "__r2c_btdp_arrp") 0 in
  let victim = load main arrp 0 in
  (* dereference the first BTDP *)
  let boom = load main victim 0 in
  call_void main (Builtin "print_int") [ boom ];
  ret main (Some (Const 0));
  let p = program ~main:"main" [ finish main ] [] in
  let cfg = Dconfig.full () in
  let img = Pipeline.compile ~seed:4 cfg p in
  let proc = Process.start img in
  match Process.run proc with
  | Process.Crashed (Fault.Guard_page _) ->
      Alcotest.(check bool) "detected" true (proc.Process.detections <> [])
  | other -> Alcotest.failf "expected guard page, got %s" (Process.outcome_to_string other)

let test_xom_in_full_config () =
  let cfg = Dconfig.full () in
  let img = Pipeline.compile ~seed:2 cfg Samples.arith_prog in
  Alcotest.(check bool) "text execute-only" true (img.Image.text_perm = Perm.xo)

let test_probability_paper_example () =
  (* Section 7.2.1: ten BTRAs, four return addresses: ~0.00007. *)
  let p = Probability.guess_n_return_addresses ~btras:10 ~n:4 in
  Alcotest.(check bool) "0.00007 ballpark" true (p > 0.00006 && p < 0.00008);
  Alcotest.(check (float 1e-12)) "single" (1.0 /. 11.0)
    (Probability.guess_return_address ~btras:10)

let test_probability_heap_pick () =
  Alcotest.(check (float 1e-12)) "H/(H+B)" 0.4
    (Probability.pick_benign_heap_pointer ~benign:4 ~btdps:6);
  Alcotest.(check (float 1e-12)) "E(B)*S" 25.0
    (Probability.expected_btdps_in_leak ~min_per_func:0 ~max_per_func:5 ~frames:10)

let test_btra_to_builtins_default_off () =
  (* Section 7.4.1: by default, call sites into unprotected code get no
     BTRAs — the plan table must skip Builtin callees. *)
  let p = Samples.arith_prog in
  let rng = Rng.create 41 in
  let _, targets = Boobytrap.generate rng ~count:32 in
  let pool = Boobytrap.pool_of_targets targets in
  let cfg =
    { Dconfig.total = 10; setup = Dconfig.Push; to_builtins = false; max_post = 4;
      check_after_return = false }
  in
  let t = Btra.build ~rng ~cfg ~pool p in
  (* arith_prog's main only calls builtins: no plans at all. *)
  Alcotest.(check int) "no plans for builtin-only callers" 0 (Hashtbl.length t.Btra.plans);
  (* And the emitted code carries no BTRA pushes. *)
  let p2 = Samples.fib_prog 4 in
  let t2 = Btra.build ~rng ~cfg ~pool p2 in
  Hashtbl.iter
    (fun (fname, site) (_ : Opts.callsite_plan) ->
      (* every planned site must be a Direct call (fib's recursion or
         main's call of fib), never print_int *)
      Alcotest.(check bool) (Printf.sprintf "%s#%d" fname site) true
        (fname = "fib" || (fname = "main" && site = 0)))
    t2.Btra.plans

let test_pool_reuse_balancing () =
  let rng = Rng.create 31 in
  let _, targets = Boobytrap.generate rng ~count:8 in
  let pool = Boobytrap.pool_of_targets targets in
  let n = Array.length targets in
  (* Draw 3x the pool size in total; usage must stay balanced within 1. *)
  let counts = Hashtbl.create 64 in
  for _ = 1 to 3 * (n / 4) do
    List.iter
      (fun tgt ->
        Hashtbl.replace counts tgt (1 + Option.value ~default:0 (Hashtbl.find_opt counts tgt)))
      (Boobytrap.pick rng pool ~n:4)
  done;
  let values = Hashtbl.fold (fun _ v acc -> v :: acc) counts [] in
  let mx = List.fold_left max 0 values and mn = List.fold_left min max_int values in
  Alcotest.(check bool) (Printf.sprintf "balanced (%d..%d)" mn mx) true (mx - mn <= 1)

let suite =
  [
    ( "r2c-core",
      List.map
        (fun (cname, cfg) ->
          Alcotest.test_case ("differential " ^ cname) `Quick (test_differential_config (cname, cfg)))
        configs
      @ [
          Alcotest.test_case "many seeds full" `Quick test_many_seeds_full;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed changes layout" `Quick test_seed_changes_layout;
          Alcotest.test_case "booby traps scattered" `Quick test_booby_traps_present_and_scattered;
          Alcotest.test_case "BTRA pre even" `Quick test_btra_pre_counts_even;
          Alcotest.test_case "BTRA post matches callee" `Quick test_btra_post_matches_callee;
          Alcotest.test_case "BTRA property A" `Quick test_btra_property_a_no_repeats_within_site;
          Alcotest.test_case "BTRA property C" `Quick test_btra_property_c_sets_differ_across_sites;
          Alcotest.test_case "AVX arrays shape" `Quick test_avx_arrays_are_multiple_of_4_words;
          Alcotest.test_case "BTDP guard pages armed" `Quick test_btdp_guard_pages_armed;
          Alcotest.test_case "BTDP array indirection" `Quick test_btdp_array_on_heap_pointer_in_data;
          Alcotest.test_case "BTDP decoys distinct" `Quick test_btdp_decoys_distinct_from_array;
          Alcotest.test_case "BTDP deref detected" `Quick test_btdp_deref_detected;
          Alcotest.test_case "XOM in full config" `Quick test_xom_in_full_config;
          Alcotest.test_case "probability paper example" `Quick test_probability_paper_example;
          Alcotest.test_case "probability heap pick" `Quick test_probability_heap_pick;
          Alcotest.test_case "BTRAs skip builtins by default" `Quick
            test_btra_to_builtins_default_off;
          Alcotest.test_case "pool reuse balancing" `Quick test_pool_reuse_balancing;
        ] );
  ]
