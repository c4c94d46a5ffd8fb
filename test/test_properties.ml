(* Property-based tests (QCheck, registered as alcotest cases).

   The crown jewel is the compiler-correctness property: for random seeded
   programs and random diversification seeds, the fully diversified binary
   behaves exactly like the reference interpreter. *)

module Q = QCheck
module Rng = R2c_util.Rng
module Stats = R2c_util.Stats
module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Boobytrap = R2c_core.Boobytrap
module Btra = R2c_core.Btra
module Probability = R2c_core.Probability
module Payload = R2c_attacks.Payload
open R2c_machine

let interp_output p =
  match Interp.run ~fuel:100_000_000 p with
  | Ok r -> (r.Interp.output, r.Interp.exit_code)
  | Error e -> failwith (Interp.error_to_string e)

(* --- the differential property --- *)

let prop_random_programs_differential =
  Q.Test.make ~count:12 ~name:"random program: full R2C == interpreter"
    Q.(pair (int_bound 10_000) (int_bound 1_000))
    (fun (prog_seed, div_seed) ->
      let p = R2c_workloads.Genprog.generate ~seed:prog_seed ~funcs:(8 + (prog_seed mod 20)) in
      let expected = interp_output p in
      let img = Pipeline.compile ~seed:div_seed (Dconfig.full ()) p in
      let proc = Process.start ~strict_align:true img in
      match Process.run proc with
      | Process.Exited code -> (Process.output proc, code) = expected
      | Process.Crashed _ | Process.Timeout -> false)

let prop_random_programs_push_setup =
  Q.Test.make ~count:8 ~name:"random program: push-BTRA R2C == interpreter"
    Q.(int_bound 10_000)
    (fun seed ->
      let p = R2c_workloads.Genprog.generate ~seed ~funcs:10 in
      let expected = interp_output p in
      let img = Pipeline.compile ~seed:(seed + 1) (Dconfig.full ~setup:Dconfig.Push ()) p in
      let proc = Process.start ~strict_align:true img in
      match Process.run proc with
      | Process.Exited code -> (Process.output proc, code) = expected
      | Process.Crashed _ | Process.Timeout -> false)

(* --- determinism and diversity --- *)

let layout_signature img =
  List.sort compare
    (List.map (fun (f : Image.func_info) -> (f.Image.fname, f.Image.entry)) (Array.to_list img.Image.funcs))

let prop_seed_determinism =
  Q.Test.make ~count:10 ~name:"equal seeds give identical layouts"
    Q.(int_bound 1_000)
    (fun seed ->
      let p = R2c_workloads.Genprog.generate ~seed:3 ~funcs:12 in
      let a = Pipeline.compile ~seed (Dconfig.full ()) p in
      let b = Pipeline.compile ~seed (Dconfig.full ()) p in
      layout_signature a = layout_signature b)

(* --- RNG --- *)

let prop_rng_bounds =
  Q.Test.make ~count:200 ~name:"Rng.int stays in bounds"
    Q.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_shuffle_permutes =
  Q.Test.make ~count:100 ~name:"Rng.shuffle is a permutation"
    Q.(pair small_int (int_range 0 200))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let arr = Array.init n (fun i -> i) in
      Rng.shuffle r arr;
      let sorted = Array.copy arr in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_rng_sample_distinct =
  Q.Test.make ~count:100 ~name:"sample_without_replacement is distinct"
    Q.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let arr = Array.init 50 (fun i -> i) in
      let s = Rng.sample_without_replacement r ~k:n arr in
      List.length (List.sort_uniq compare s) = n)

(* --- clustering --- *)

let prop_cluster_partition =
  Q.Test.make ~count:100 ~name:"cluster partitions its input"
    Q.(pair (list (int_bound 1_000_000)) (int_range 1 10_000))
    (fun (values, gap) ->
      let clusters = Stats.cluster ~gap values in
      let members = List.concat_map (fun c -> c.Stats.members) clusters in
      members = List.sort compare values)

let prop_cluster_gaps =
  Q.Test.make ~count:100 ~name:"cluster boundaries exceed the gap"
    Q.(pair (list (int_bound 1_000_000)) (int_range 1 10_000))
    (fun (values, gap) ->
      let clusters = Stats.cluster ~gap values in
      let rec ok = function
        | (a : Stats.cluster) :: (b :: _ as tl) -> b.Stats.lo - a.Stats.hi > gap && ok tl
        | _ -> true
      in
      ok clusters)

let prop_cluster_internal_gaps =
  Q.Test.make ~count:100 ~name:"within-cluster neighbours within gap"
    Q.(pair (list (int_bound 1_000_000)) (int_range 1 10_000))
    (fun (values, gap) ->
      let clusters = Stats.cluster ~gap values in
      List.for_all
        (fun (c : Stats.cluster) ->
          let rec ok = function
            | a :: (b :: _ as tl) -> b - a <= gap && ok tl
            | _ -> true
          in
          ok c.Stats.members)
        clusters)

(* --- statistics --- *)

let prop_geomean_bounds =
  Q.Test.make ~count:100 ~name:"geomean between min and max"
    Q.(list_of_size (Gen.int_range 1 20) (float_range 0.1 100.0))
    (fun xs ->
      let g = Stats.geomean xs in
      g >= List.fold_left min infinity xs -. 1e-9 && g <= Stats.maximum xs +. 1e-9)

let prop_median_member_or_mean =
  Q.Test.make ~count:100 ~name:"median within range"
    Q.(list_of_size (Gen.int_range 1 20) (float_range (-100.) 100.0))
    (fun xs ->
      let m = Stats.median xs in
      m >= List.fold_left min infinity xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

(* --- BTRA invariants over random programs/seeds --- *)

let btra_cfg = { Dconfig.total = 10; setup = Dconfig.Push; to_builtins = true; max_post = 4; check_after_return = false }

let prop_btra_invariants =
  Q.Test.make ~count:20 ~name:"BTRA plans: pre even, distinct, post matches callee"
    Q.(pair (int_bound 1_000) (int_bound 1_000))
    (fun (prog_seed, rng_seed) ->
      let p = R2c_workloads.Genprog.generate ~seed:prog_seed ~funcs:10 in
      let rng = Rng.create rng_seed in
      let _, targets = Boobytrap.generate rng ~count:48 in
      let pool = Boobytrap.pool_of_targets targets in
      let t = Btra.build ~rng ~cfg:btra_cfg ~pool p in
      Hashtbl.fold
        (fun (_, _) (plan : R2c_compiler.Opts.callsite_plan) acc ->
          acc
          && List.length plan.pre_syms land 1 = 0
          &&
          let all = plan.pre_syms @ plan.post_syms in
          List.length (List.sort_uniq compare all) = List.length all)
        t.Btra.plans true)

(* --- textual IR round trip --- *)

let prop_text_roundtrip =
  Q.Test.make ~count:25 ~name:"textual IR: print/parse round trip"
    Q.(int_bound 100_000)
    (fun seed ->
      let p = R2c_workloads.Genprog.generate ~seed ~funcs:(5 + (seed mod 25)) in
      let printed = Text.to_string p in
      match Text.parse printed with
      | Error _ -> false
      | Ok q -> Text.to_string q = printed)

(* --- payload encoding --- *)

let prop_le64_roundtrip =
  Q.Test.make ~count:200 ~name:"le64 little-endian roundtrip"
    Q.(int_bound max_int)
    (fun v ->
      let s = Payload.le64 v in
      let back = ref 0 in
      for i = 7 downto 0 do
        back := (!back lsl 8) lor Char.code s.[i]
      done;
      String.length s = 8 && !back = v)

let prop_slice_reconstructs =
  Q.Test.make ~count:100 ~name:"Payload.slice = raw bytes of the leak"
    Q.(pair (array_of_size (Gen.int_range 1 16) (int_bound 1_000_000_000)) small_int)
    (fun (values, k) ->
      let upto = 8 * Array.length values in
      let from = k mod upto in
      let s = Payload.slice ~values ~from_off:from ~upto_off:upto in
      String.length s = upto - from
      && String.to_seq s
         |> Seq.mapi (fun i c -> (i + from, c))
         |> Seq.for_all (fun (off, c) ->
                Char.code c = (values.(off / 8) lsr (8 * (off mod 8))) land 0xff))

(* --- heap allocator --- *)

let prop_heap_no_overlap =
  Q.Test.make ~count:50 ~name:"heap: live blocks never overlap"
    Q.(list_of_size (Gen.int_range 1 40) (int_range 1 500))
    (fun sizes ->
      let mem = Mem.create () in
      let h = Heap.create mem ~base:Addr.heap_base in
      let live = ref [] in
      List.iteri
        (fun i size ->
          let a = Heap.malloc h size in
          live := (a, Addr.align_up size ~align:16) :: !live;
          (* free every third block to churn the free list *)
          if i mod 3 = 2 then
            match !live with
            | (b, _) :: rest ->
                Heap.free h b;
                live := rest
            | [] -> ())
        sizes;
      let rec no_overlap = function
        | [] -> true
        | (a, sa) :: rest ->
            List.for_all (fun (b, sb) -> a + sa <= b || b + sb <= a) rest
            && no_overlap rest
      in
      no_overlap !live)

(* --- probability --- *)

let prop_guess_decreasing =
  Q.Test.make ~count:100 ~name:"chain guess probability decreases with n"
    Q.(pair (int_range 1 20) (int_range 1 10))
    (fun (r, n) ->
      Probability.guess_n_return_addresses ~btras:r ~n:(n + 1)
      <= Probability.guess_n_return_addresses ~btras:r ~n)

let prop_pick_bounds =
  Q.Test.make ~count:100 ~name:"heap pick probability in [0,1]"
    Q.(pair (int_range 0 100) (int_range 0 100))
    (fun (h, b) ->
      Q.assume (h + b > 0);
      let p = Probability.pick_benign_heap_pointer ~benign:h ~btdps:b in
      p >= 0.0 && p <= 1.0)

(* --- supervisor backoff --- *)

let prop_backoff_monotone_capped =
  Q.Test.make ~count:200 ~name:"backoff delays monotone non-decreasing, never above cap"
    Q.(pair small_nat (int_range 1 6))
    (fun (seed, factor) ->
      let cfg = { R2c_runtime.Policy.default_backoff with factor } in
      let s = R2c_runtime.Policy.Backoff_state.create ~cfg ~seed () in
      let delays =
        List.init 12 (fun _ -> R2c_runtime.Policy.Backoff_state.next_delay s)
      in
      let rec monotone = function
        | a :: (b :: _ as tl) -> a <= b && monotone tl
        | _ -> true
      in
      monotone delays
      && List.for_all (fun d -> d >= cfg.base && d <= cfg.cap) delays)

let prop_breaker_quarantines_within_window =
  Q.Test.make ~count:200 ~name:"circuit breaker trips on max_crashes within window"
    Q.(pair small_nat (int_range 2 8))
    (fun (seed, max_crashes) ->
      let cfg = { R2c_runtime.Policy.default_backoff with max_crashes } in
      let s = R2c_runtime.Policy.Backoff_state.create ~cfg ~seed () in
      (* crashes packed well inside one window: the Nth must trip it *)
      let step = cfg.window / (2 * max_crashes) in
      let tripped = ref false in
      for i = 0 to max_crashes - 1 do
        let now = i * step in
        let t = R2c_runtime.Policy.Backoff_state.record_crash s ~now in
        if i < max_crashes - 1 then assert (not t) else tripped := t
      done;
      let now = (max_crashes - 1) * step in
      !tripped && R2c_runtime.Policy.Backoff_state.quarantined_until s = now + cfg.quarantine)

let prop_breaker_spaced_crashes_never_trip =
  Q.Test.make ~count:200 ~name:"crashes spaced past the window never trip the breaker"
    Q.(pair small_nat (int_range 2 6))
    (fun (seed, max_crashes) ->
      let cfg = { R2c_runtime.Policy.default_backoff with max_crashes } in
      let s = R2c_runtime.Policy.Backoff_state.create ~cfg ~seed () in
      let gap = cfg.window + 1 in
      List.for_all not
        (List.init (3 * max_crashes) (fun i ->
             R2c_runtime.Policy.Backoff_state.record_crash s ~now:(i * gap))))

let suite =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_random_programs_differential;
          prop_random_programs_push_setup;
          prop_seed_determinism;
          prop_rng_bounds;
          prop_rng_shuffle_permutes;
          prop_rng_sample_distinct;
          prop_cluster_partition;
          prop_cluster_gaps;
          prop_cluster_internal_gaps;
          prop_geomean_bounds;
          prop_median_member_or_mean;
          prop_btra_invariants;
          prop_text_roundtrip;
          prop_le64_roundtrip;
          prop_slice_reconstructs;
          prop_heap_no_overlap;
          prop_guess_decreasing;
          prop_pick_bounds;
          prop_backoff_monotone_capped;
          prop_breaker_quarantines_within_window;
          prop_breaker_spaced_crashes_never_trip;
        ] );
  ]
