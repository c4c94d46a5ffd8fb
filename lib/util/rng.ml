type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 (Steele et al.), the reference stream generator: one additive
   constant walk plus a finalizing mix. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = int64 t in
  { state = s }

let int t bound =
  assert (bound > 0);
  (* Rejection-free for our purposes: 62 random bits modulo the bound. The
     modulo bias is < bound / 2^62, irrelevant at our bounds. *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  bits mod bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (int64 t) 1L = 1L

(* The top 53 bits of a raw output, as a float in [0, 1). *)
let[@inline] unit_float z =
  float_of_int (Int64.to_int (Int64.shift_right_logical z 11)) /. 9007199254740992.0

let float t bound = unit_float (int64 t) *. bound

(* [float]'s computation on a local state: [unit_float (mix64 s)] is the
   [float g 1.0] of a generator [g] at [s] (multiplying by 1.0 is exact).
   The walk stays unboxed: drawing through a copied generator boxes every
   step's state, and with ~23k draws per check that allocation lifted the
   fleet-chaos benchmark's serve_tail_us from ~215 to ~370 us (2-vCPU
   host). *)
let skip_floats_at_least t ~n ~floor =
  let s = ref t.state and i = ref 0 in
  while
    !i < n
    && begin
         s := Int64.add !s golden_gamma;
         unit_float (mix64 !s) >= floor
       end
  do
    incr i
  done;
  !i >= n
  && begin
       t.state <- !s;
       true
     end

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle_list t l =
  let arr = Array.of_list l in
  shuffle t arr;
  Array.to_list arr

let choose t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let sample_without_replacement t ~k arr =
  let n = Array.length arr in
  assert (k <= n);
  let idx = Array.init n (fun i -> i) in
  (* Partial Fisher-Yates: only the first k draws are needed. *)
  let picked = ref [] in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp;
    picked := arr.(idx.(i)) :: !picked
  done;
  List.rev !picked
