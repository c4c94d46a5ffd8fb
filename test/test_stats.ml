module Stats = R2c_util.Stats

let feq = Alcotest.float 1e-9

let test_mean () = Alcotest.check feq "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_geomean () =
  Alcotest.check feq "geomean of equal" 3.0 (Stats.geomean [ 3.0; 3.0; 3.0 ]);
  Alcotest.check (Alcotest.float 1e-9) "geomean 2,8" 4.0 (Stats.geomean [ 2.0; 8.0 ])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_median_odd () = Alcotest.check feq "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ])

let test_median_even () =
  Alcotest.check feq "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_median_int () =
  Alcotest.(check int) "odd" 3 (Stats.median_int [ 5; 1; 3 ]);
  Alcotest.(check int) "even lower-mid" 2 (Stats.median_int [ 4; 1; 2; 3 ])

let test_max () =
  Alcotest.check feq "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "max of negatives" (-1.0) (Stats.maximum [ -3.0; -1.0; -2.0 ])

let test_cluster_basic () =
  (* Three groups separated by big gaps — like text/heap/stack pointers. *)
  let values = [ 10; 12; 11; 1000; 1002; 50000; 50001; 50002; 50003 ] in
  let cs = Stats.cluster ~gap:100 values in
  Alcotest.(check int) "three clusters" 3 (List.length cs);
  let sizes = List.map (fun (c : Stats.cluster) -> List.length c.members) cs in
  Alcotest.(check (list int)) "sizes ascending lo" [ 3; 2; 4 ] sizes

let test_cluster_single () =
  let cs = Stats.cluster ~gap:10 [ 5 ] in
  Alcotest.(check int) "one cluster" 1 (List.length cs);
  match cs with
  | [ c ] ->
      Alcotest.(check int) "lo" 5 c.Stats.lo;
      Alcotest.(check int) "hi" 5 c.Stats.hi
  | _ -> Alcotest.fail "expected one cluster"

let test_cluster_empty () =
  Alcotest.(check int) "empty" 0 (List.length (Stats.cluster ~gap:10 []))

let test_cluster_bounds () =
  let cs = Stats.cluster ~gap:5 [ 3; 1; 2; 100 ] in
  match cs with
  | [ a; b ] ->
      Alcotest.(check int) "first lo" 1 a.Stats.lo;
      Alcotest.(check int) "first hi" 3 a.Stats.hi;
      Alcotest.(check int) "second lo" 100 b.Stats.lo
  | _ -> Alcotest.fail "expected two clusters"

let suite =
  [
    ( "stats",
      [
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "geomean rejects" `Quick test_geomean_rejects_nonpositive;
        Alcotest.test_case "median odd" `Quick test_median_odd;
        Alcotest.test_case "median even" `Quick test_median_even;
        Alcotest.test_case "median int" `Quick test_median_int;
        Alcotest.test_case "max" `Quick test_max;
        Alcotest.test_case "cluster basic" `Quick test_cluster_basic;
        Alcotest.test_case "cluster single" `Quick test_cluster_single;
        Alcotest.test_case "cluster empty" `Quick test_cluster_empty;
        Alcotest.test_case "cluster bounds" `Quick test_cluster_bounds;
      ] );
  ]
