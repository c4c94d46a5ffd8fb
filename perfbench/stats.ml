(* The benchmark's own statistics. They are kept apart from
   [R2c_util.Stats] on purpose: the system under test must not grade
   itself, and [self_check] pins every function here to fixed vectors
   whose answers were worked out independently (the quartiles match
   Python's [statistics.quantiles(xs, n=4)], method "exclusive"). *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's exclusive-method quantile cut points, integer arithmetic
   included, so the benchmark's spread is the spread the acceptance
   check computes. Needs at least two values. *)
let quantiles ~n xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then List.init (n - 1) (fun _ -> if ld = 1 then a.(0) else nan)
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

let quartiles xs =
  match quantiles ~n:4 xs with [ q1; q2; q3 ] -> (q1, q2, q3) | _ -> assert false

(* Nearest rank: the smallest value with at least [p]% of the samples at
   or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 1 (min n rank) - 1)

(* The tail a timing is reported at: the highest nearest-rank percentile
   that still has at least [beyond] samples above it, i.e. the value of
   rank [n - beyond]. Returns the percentile label with the value; with
   too few samples for any such percentile, the maximum labelled 100. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n <= beyond then (100.0, a.(n - 1))
  else
    let rank = n - beyond in
    (100.0 *. float_of_int rank /. float_of_int n, a.(rank - 1))

(* A tail that does not drift with the sample count, which a time-boxed
   run would otherwise make depend on the speed of the system: the
   samples, in recording order, are cut into windows of [window]; each
   window's tail is its value of rank [window - beyond] (p99 for the
   defaults — the highest percentile with [beyond] samples above it), and
   the result is their median. With fewer than two windows, the whole
   sample's [tail]. *)
let windowed_tail ?(window = 1000) ?(beyond = 10) xs =
  let n = List.length xs in
  if n < 2 * window then snd (tail ~beyond xs)
  else
    let a = Array.of_list xs in
    median
      (List.init (n / window) (fun k ->
           snd (tail ~beyond (Array.to_list (Array.sub a (k * window) window)))))

let geomean xs =
  match xs with
  | [] -> nan
  | _ -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Fixed vectors; each case is (what, got, want). *)
let self_check () =
  let v10 = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  let cases =
    [
      ("median odd", median [ 5.; 1.; 4.; 2.; 3. ], 3.0);
      ("median even", median [ 10.; 20.; 30.; 40. ], 25.0);
      ("median unsorted", median [ 3.5; 1.0; 2.0 ], 2.0);
    ]
    @ List.concat_map
        (fun (name, xs, (w1, w2, w3)) ->
          let q1, q2, q3 = quartiles xs in
          [ (name ^ " q1", q1, w1); (name ^ " q2", q2, w2); (name ^ " q3", q3, w3) ])
        [
          ("quartiles 1..10", v10, (2.75, 5.5, 8.25));
          ("quartiles n=3", [ 3.5; 1.0; 2.0 ], (1.0, 2.0, 3.5));
          ("quartiles n=5", [ 5.; 1.; 4.; 2.; 3. ], (1.5, 3.0, 4.5));
          ("quartiles n=4", [ 10.; 20.; 30.; 40. ], (12.5, 25.0, 37.5));
          ("quartiles ties", [ 7.; 7.; 7.; 7.; 8. ], (7.0, 7.0, 7.5));
        ]
    @ [
        ("p50 nearest rank", percentile 50.0 v10, 5.0);
        ("p90 nearest rank", percentile 90.0 v10, 9.0);
        ("p91 nearest rank", percentile 91.0 v10, 10.0);
        ("p0 nearest rank", percentile 0.0 v10, 1.0);
        ("p100 nearest rank", percentile 100.0 v10, 10.0);
        ("geomean", geomean [ 1.0; 4.0; 16.0 ], 4.0);
      ]
    @
    let v100 = List.init 100 (fun i -> float_of_int (100 - i)) in
    let p100, t100 = tail v100 in
    let p11, t11 = tail (List.init 11 (fun i -> float_of_int i)) in
    let p10, t10 = tail v10 in
    let p1000, t1000 = tail (List.init 1000 (fun i -> float_of_int (i + 1))) in
    [
      (* 100 samples: rank 90 has exactly ten above it. *)
      ("tail n=100 value", t100, 90.0);
      ("tail n=100 pct", p100, 90.0);
      (* 11 samples: only the smallest has ten above it. *)
      ("tail n=11 value", t11, 0.0);
      ("tail n=11 pct", p11, 100.0 /. 11.0);
      (* 10 samples: no percentile qualifies; the maximum stands in. *)
      ("tail n=10 value", t10, 10.0);
      ("tail n=10 pct", p10, 100.0);
      ("tail n=1000 value", t1000, 990.0);
      ("tail n=1000 pct", p1000, 99.0);
      (* Windows 1..1000 and 1001..2000 (plus a partial third, ignored)
         have tails 990 and 1990. *)
      ("windowed tail", windowed_tail (List.init 2500 (fun i -> float_of_int (i + 1))), 1490.0);
      ("windowed tail, one window", windowed_tail v100, 90.0);
    ]
  in
  List.filter_map
    (fun (what, got, want) ->
      if Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want) then None
      else Some (Printf.sprintf "%s: got %.12g, want %.12g" what got want))
    cases
