module Rng = R2c_util.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_in_range () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range r ~lo:5 ~hi:9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done;
  (* Degenerate range. *)
  Alcotest.(check int) "singleton" 3 (Rng.int_in_range r ~lo:3 ~hi:3)

let test_split_independence () =
  let r = Rng.create 99 in
  let a = Rng.split r in
  let b = Rng.split r in
  Alcotest.(check bool) "split streams differ" true (Rng.int64 a <> Rng.int64 b)

let test_copy () =
  let r = Rng.create 5 in
  let _ = Rng.int64 r in
  let c = Rng.copy r in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 r) (Rng.int64 c)

let test_shuffle_is_permutation () =
  let r = Rng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_shuffle_moves_something () =
  let r = Rng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  Alcotest.(check bool) "not identity" true (arr <> Array.init 50 (fun i -> i))

let test_sample_without_replacement () =
  let r = Rng.create 3 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Rng.sample_without_replacement r ~k:10 arr in
  Alcotest.(check int) "k elements" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s))

let test_choose_uniformity () =
  let r = Rng.create 17 in
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let v = Rng.choose r [| 0; 1; 2; 3 |] in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

let test_float_bounds () =
  let r = Rng.create 23 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

(* The skip decides exactly as [n] calls of [float g 1.0] would, advances
   exactly [n] draws on success, and leaves the generator alone on
   failure. *)
let test_skip_floats_at_least () =
  for seed = 0 to 199 do
    let n = 50 + (seed mod 7) and floor = float_of_int (seed mod 5) *. 0.01 in
    let g = Rng.create seed in
    let by_hand = Rng.copy g in
    let all = List.for_all (fun x -> x >= floor) (List.init n (fun _ -> Rng.float by_hand 1.0)) in
    let before = Rng.copy g in
    let skipped = Rng.skip_floats_at_least g ~n ~floor in
    Alcotest.(check bool) (Printf.sprintf "seed %d: decision" seed) all skipped;
    Alcotest.(check int64) (Printf.sprintf "seed %d: next draw" seed)
      (Rng.int64 (if skipped then by_hand else before))
      (Rng.int64 g)
  done

let suite =
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int_in_range" `Quick test_int_in_range;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
        Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_something;
        Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        Alcotest.test_case "choose uniformity" `Quick test_choose_uniformity;
        Alcotest.test_case "float bounds" `Quick test_float_bounds;
        Alcotest.test_case "skip_floats_at_least" `Quick test_skip_floats_at_least;
      ] );
  ]
