module B = Builder
module Rng = R2c_util.Rng

(* ------------------------------------------------------------------ *)
(* v1: the layered-DAG generator, verbatim from the original Genprog.  *)
(* ------------------------------------------------------------------ *)

let gp_fname i = Printf.sprintf "gp_f%d" i

(* One generated function: mixes its parameters with arithmetic, touches a
   global array, sometimes loops, and calls 0-3 lower-numbered functions
   (guaranteeing an acyclic call graph). *)
let gen_layered_func rng i =
  let fb = B.func (gp_fname i) ~nparams:2 in
  let a = B.param 0 and b = B.param 1 in
  let acc = B.slot fb 8 in
  B.store fb (B.slot_addr fb acc) 0 a;
  let add v =
    let cur = B.load fb (B.slot_addr fb acc) 0 in
    B.store fb (B.slot_addr fb acc) 0 (B.binop fb Ir.Add cur v)
  in
  (* Arithmetic body. *)
  let n_ops = Rng.int_in_range rng ~lo:2 ~hi:6 in
  let cur = ref b in
  for _ = 1 to n_ops do
    let op =
      match Rng.int rng 5 with
      | 0 -> Ir.Add
      | 1 -> Ir.Sub
      | 2 -> Ir.Mul
      | 3 -> Ir.Xor
      | _ -> Ir.And
    in
    cur := B.binop fb op !cur (Ir.Const (Rng.int_in_range rng ~lo:1 ~hi:1000))
  done;
  add !cur;
  (* Global array touch. *)
  if Rng.bool rng then begin
    let idx = B.binop fb Ir.And a (Ir.Const 63) in
    let off = B.binop fb Ir.Mul idx (Ir.Const 8) in
    let slot = B.binop fb Ir.Add (Ir.Global "gp_data") off in
    let v = B.load fb slot 0 in
    B.store fb slot 0 (B.binop fb Ir.Add v (Ir.Const 1));
    add v
  end;
  (* Occasional small loop. *)
  if Rng.int rng 3 = 0 then begin
    let n = Rng.int_in_range rng ~lo:2 ~hi:5 in
    B.for_ fb ~from:(Ir.Const 0) ~below:(Ir.Const n) (fun k ->
        let m = B.binop fb Ir.Mul k (Ir.Const 3) in
        add m)
  end;
  (* Calls to earlier functions (each executed exactly once per call of
     this function, keeping total work linear in program size). *)
  if i > 0 then begin
    (* Expected out-degree < 1 keeps the expected transitive work per call
       bounded, so even 30k-function programs execute in linear time. *)
    let n_calls =
      match Rng.int rng 10 with 0 | 1 | 2 | 3 -> 1 | 4 | 5 -> 2 | _ -> 0
    in
    let n_calls = min n_calls i in
    for _ = 1 to n_calls do
      let callee = Rng.int rng i in
      let v =
        B.call fb (Ir.Direct (gp_fname callee))
          [ B.binop fb Ir.And a (Ir.Const 0xffff); Ir.Const (Rng.int_in_range rng ~lo:0 ~hi:99) ]
      in
      add v
    done
  end;
  let r = B.load fb (B.slot_addr fb acc) 0 in
  B.ret fb (Some (B.binop fb Ir.And r (Ir.Const 0xffff_ffff)));
  B.finish fb

let layered ~seed ~funcs =
  assert (funcs > 0);
  let rng = Rng.create seed in
  let fs = List.init funcs (fun i -> gen_layered_func rng i) in
  let main = B.func "main" ~nparams:0 in
  let acc = B.slot main 8 in
  B.store main (B.slot_addr main acc) 0 (Ir.Const 0);
  (* Call the top layer: the highest functions transitively execute a large
     share of the graph. *)
  let roots = min 8 funcs in
  for k = 1 to roots do
    let v = B.call main (Ir.Direct (gp_fname (funcs - k))) [ Ir.Const k; Ir.Const (k * 7) ] in
    let cur = B.load main (B.slot_addr main acc) 0 in
    B.store main (B.slot_addr main acc) 0 (B.binop main Ir.Add cur v)
  done;
  (* Ensure every function ran at least once (coverage of the compile). *)
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const 1) (fun _ -> ());
  let covered = B.func "gp_cover" ~nparams:0 in
  let acc2 = B.slot covered 8 in
  B.store covered (B.slot_addr covered acc2) 0 (Ir.Const 0);
  List.iteri
    (fun i _ ->
      let v = B.call covered (Ir.Direct (gp_fname i)) [ Ir.Const i; Ir.Const 3 ] in
      let cur = B.load covered (B.slot_addr covered acc2) 0 in
      B.store covered (B.slot_addr covered acc2) 0 (B.binop covered Ir.Xor cur v))
    fs;
  B.ret covered (Some (B.load covered (B.slot_addr covered acc2) 0));
  let v = B.call main (Ir.Direct "gp_cover") [] in
  let cur = B.load main (B.slot_addr main acc) 0 in
  B.store main (B.slot_addr main acc) 0 (B.binop main Ir.Add cur v);
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main acc) 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    (fs @ [ B.finish covered; B.finish main ])
    [ { Ir.gname = "gp_data"; gsize = 8 * 64; ginit = [] } ]

(* ------------------------------------------------------------------ *)
(* v2: the divergence-hunting generator.                               *)
(* ------------------------------------------------------------------ *)

let fz_fname i = Printf.sprintf "fz_f%d" i
let data_words = 64
let tab_len = 8

(* Edge operands: overflow boundaries, sign boundaries, byte/word masks.
   All arithmetic is OCaml 63-bit on both sides of the oracle, so these
   probe wrap-around and truncation consistency, not undefined behaviour. *)
let edge_consts =
  [|
    0; 1; -1; 2; 3; 7; 8; 63; 255; 256; 0xffff; 0x7fffffff; -255;
    max_int; min_int; max_int - 1; min_int + 1;
  |]

(* Accumulate into a stack slot, like v1. *)
let mk_add fb acc v =
  let cur = B.load fb (B.slot_addr fb acc) 0 in
  B.store fb (B.slot_addr fb acc) 0 (B.binop fb Ir.Add cur v)

(* The body of a non-recursive function: a random sequence of shapes.
   [max_calls] bounds the dynamic out-degree (worst case 2) so the layered
   call graph's total work stays manageable even at full depth. *)
let gen_shapes rng fb ~i ~acc ~recursive_pool =
  let a = B.param 0 and b = B.param 1 in
  let add = mk_add fb acc in
  let pool = ref [ a; b ] in
  let pick () =
    if Rng.int rng 4 = 0 then Ir.Const (Rng.choose rng edge_consts)
    else Rng.choose_list rng !pool
  in
  let push v = pool := v :: !pool in
  let calls = ref 0 in
  let max_calls = 2 in
  let arith () =
    let op =
      match Rng.int rng 6 with
      | 0 -> Ir.Add
      | 1 -> Ir.Sub
      | 2 -> Ir.Mul
      | 3 -> Ir.And
      | 4 -> Ir.Or
      | _ -> Ir.Xor
    in
    let v = B.binop fb op (pick ()) (pick ()) in
    push v;
    add v
  in
  let shift () =
    let amt = B.binop fb Ir.And (pick ()) (Ir.Const 15) in
    let op = match Rng.int rng 3 with 0 -> Ir.Shl | 1 -> Ir.Shr | _ -> Ir.Sar in
    let v = B.binop fb op (pick ()) amt in
    push v;
    add v
  in
  let divrem () =
    (* Divisors are forced odd (hence nonzero); numerators range over the
       edge set, so min_int / -1 and truncation toward zero are covered. *)
    let num = pick () in
    let den =
      if Rng.bool rng then Ir.Const (Rng.choose rng [| 1; -1; 3; 7; -5; 255; max_int |])
      else
        let d = B.binop fb Ir.And (pick ()) (Ir.Const 0xf) in
        B.binop fb Ir.Or d (Ir.Const 1)
    in
    let q = B.binop fb Ir.Div num den in
    let r = B.binop fb Ir.Rem num den in
    push q;
    add q;
    add r
  in
  let alias_global () =
    (* Two pointer chains computed independently from the same value: the
       store through one must be visible through the other, at word and at
       byte granularity. *)
    let src = pick () in
    let idx = B.binop fb Ir.And src (Ir.Const (data_words - 1)) in
    let off = B.binop fb Ir.Mul idx (Ir.Const 8) in
    let p = B.binop fb Ir.Add (Ir.Global "fz_data") off in
    let idx' = B.binop fb Ir.And src (Ir.Const (data_words - 1)) in
    let off' = B.binop fb Ir.Mul idx' (Ir.Const 8) in
    let q = B.binop fb Ir.Add (Ir.Global "fz_data") off' in
    B.store fb p 0 (pick ());
    B.store8 fb q (Rng.int rng 8) (pick ());
    let v = B.load fb p 0 in
    push v;
    add v
  in
  let alias_slot () =
    (* Byte-poke the accumulator slot, then read it back as a word. *)
    B.store8 fb (B.slot_addr fb acc) (Rng.int rng 8) (pick ());
    let v = B.load fb (B.slot_addr fb acc) 0 in
    push v
  in
  let loop () =
    let bound = Rng.int_in_range rng ~lo:2 ~hi:5 in
    let step = Ir.Const (Rng.int_in_range rng ~lo:1 ~hi:9) in
    B.for_ fb ~from:(Ir.Const 0) ~below:(Ir.Const bound) (fun k ->
        add (B.binop fb Ir.Mul k step))
  in
  let cold_branch () =
    (* Booby-trap-adjacent control flow: statically reachable (Validate
       demands it) but cold at run time — the shape trap insertion and
       layout shuffling must not disturb. *)
    let c =
      B.cmp fb Ir.Eq (B.binop fb Ir.And a (Ir.Const 7)) (Ir.Const (Rng.int rng 8))
    in
    B.if_ fb c
      (fun () ->
        B.store fb (Ir.Global "fz_data") (8 * Rng.int rng 8)
          (Ir.Const (Rng.int_in_range rng ~lo:1 ~hi:99)))
      (fun () -> add (Ir.Const 1))
  in
  let call_direct () =
    if i > 0 && !calls < max_calls then begin
      incr calls;
      let callee = Rng.int rng i in
      let v =
        B.call fb
          (Ir.Direct (fz_fname callee))
          [ B.binop fb Ir.And (pick ()) (Ir.Const 0xffff);
            Ir.Const (Rng.int_in_range rng ~lo:0 ~hi:99) ]
      in
      push v;
      add v
    end
  in
  let call_indirect () =
    (* Through the code-pointer table, index masked to a power of two that
       only reaches strictly lower-numbered functions (acyclicity). *)
    if i > 0 && !calls < max_calls then begin
      incr calls;
      let m = min i tab_len in
      let k = ref 1 in
      while !k * 2 <= m do
        k := !k * 2
      done;
      let idx = B.binop fb Ir.And (pick ()) (Ir.Const (!k - 1)) in
      let off = B.binop fb Ir.Mul idx (Ir.Const 8) in
      let fp = B.load fb (B.binop fb Ir.Add (Ir.Global "fz_tab") off) 0 in
      let v =
        B.call fb (Ir.Indirect fp)
          [ B.binop fb Ir.And (pick ()) (Ir.Const 0xff); Ir.Const (Rng.int rng 50) ]
      in
      push v;
      add v
    end
  in
  let call_recursive () =
    (* Call an already-generated self-recursive function at full depth. *)
    match recursive_pool with
    | [] -> ()
    | pool when i > 0 && !calls < max_calls ->
        incr calls;
        let callee = Rng.choose_list rng pool in
        let v =
          B.call fb
            (Ir.Direct (fz_fname callee))
            [ Ir.Const 15; B.binop fb Ir.And (pick ()) (Ir.Const 0xfff) ]
        in
        push v;
        add v
    | _ -> ()
  in
  let n_shapes = Rng.int_in_range rng ~lo:3 ~hi:6 in
  for _ = 1 to n_shapes do
    match Rng.int rng 10 with
    | 0 | 1 -> arith ()
    | 2 -> shift ()
    | 3 -> divrem ()
    | 4 -> alias_global ()
    | 5 -> alias_slot ()
    | 6 -> loop ()
    | 7 -> cold_branch ()
    | 8 -> call_direct ()
    | 9 -> if Rng.bool rng then call_indirect () else call_recursive ()
    | _ -> assert false
  done

(* A self-recursive function: depth masked to 15 at entry, strictly
   decremented on the self-call, no other outgoing calls — a call to it
   costs at most 16x its own body. *)
let gen_recursive_func rng i =
  let fb = B.func (fz_fname i) ~nparams:2 in
  let a = B.param 0 and b = B.param 1 in
  let acc = B.slot fb 8 in
  B.store fb (B.slot_addr fb acc) 0 b;
  let add = mk_add fb acc in
  let d = B.binop fb Ir.And a (Ir.Const 15) in
  let mix = B.binop fb Ir.Xor b (Ir.Const (Rng.int_in_range rng ~lo:1 ~hi:1000)) in
  add mix;
  let c = B.cmp fb Ir.Gt d (Ir.Const 0) in
  B.if_ fb c
    (fun () ->
      let t = B.binop fb Ir.Add mix d in
      let r =
        B.call fb (Ir.Direct (fz_fname i)) [ B.binop fb Ir.Sub d (Ir.Const 1); t ]
      in
      add (B.binop fb Ir.Sub r d))
    (fun () -> add (Ir.Const (Rng.int_in_range rng ~lo:1 ~hi:9)));
  let r = B.load fb (B.slot_addr fb acc) 0 in
  B.ret fb (Some (B.binop fb Ir.And r (Ir.Const 0x3fff_ffff)));
  B.finish fb

let gen_v2_func rng ~recursive_pool i =
  let fb = B.func (fz_fname i) ~nparams:2 in
  let b = B.param 1 in
  let acc = B.slot fb 8 in
  B.store fb (B.slot_addr fb acc) 0 b;
  gen_shapes rng fb ~i ~acc ~recursive_pool;
  let r = B.load fb (B.slot_addr fb acc) 0 in
  B.ret fb (Some (B.binop fb Ir.And r (Ir.Const 0x3fff_ffff)));
  B.finish fb

let v2 ?funcs ~seed () =
  let rng = Rng.create seed in
  let n =
    match funcs with
    | Some n ->
        assert (n > 0);
        n
    | None -> Rng.int_in_range rng ~lo:4 ~hi:10
  in
  let recursive_pool = ref [] in
  (* Explicit loop: the RNG consumption order must not depend on the
     stdlib's List.init evaluation order. *)
  let fs_rev = ref [] in
  for i = 0 to n - 1 do
    let f =
      if i > 0 && Rng.int rng 4 = 0 then begin
        let f = gen_recursive_func rng i in
        recursive_pool := i :: !recursive_pool;
        f
      end
      else gen_v2_func rng ~recursive_pool:!recursive_pool i
    in
    fs_rev := f :: !fs_rev
  done;
  let fs = List.rev !fs_rev in
  let main = B.func "main" ~nparams:0 in
  let acc = B.slot main 8 in
  B.store main (B.slot_addr main acc) 0 (Ir.Const 0);
  let add = mk_add main acc in
  (* Direct roots from the top of the DAG. *)
  let roots = min 4 n in
  for k = 1 to roots do
    add (B.call main (Ir.Direct (fz_fname (n - k))) [ Ir.Const ((k * 3) + 1); Ir.Const (k * 7) ])
  done;
  (* One indirect root through the table. *)
  let off = 8 * Rng.int rng (min n tab_len) in
  let fp = B.load main (Ir.Global "fz_tab") off in
  add (B.call main (Ir.Indirect fp) [ Ir.Const 5; Ir.Const 9 ]);
  (* Every recursive function at full depth. *)
  List.iter
    (fun i -> add (B.call main (Ir.Direct (fz_fname i)) [ Ir.Const 0x1ff; Ir.Const (i * 11) ]))
    (List.rev !recursive_pool);
  (* Checksum of the shared data array: layout divergence anywhere in the
     aliasing stores shows up here. *)
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const data_words) (fun k ->
      let off = B.binop main Ir.Mul k (Ir.Const 8) in
      add (B.load main (B.binop main Ir.Add (Ir.Global "fz_data") off) 0));
  let total = B.load main (B.slot_addr main acc) 0 in
  B.call_void main (Ir.Builtin "print_int") [ B.binop main Ir.And total (Ir.Const 0xffff_ffff) ];
  (* An output-visible Sub: the oracle's planted miscompile keys on Sub, so
     every generated program can reproduce it (see Oracle.plant). *)
  let chk = B.binop main Ir.Sub total (Ir.Const 1) in
  B.call_void main (Ir.Builtin "print_int") [ B.binop main Ir.And chk (Ir.Const 0xffff) ];
  B.ret main (Some (B.binop main Ir.And chk (Ir.Const 63)));
  let globals =
    [
      {
        Ir.gname = "fz_data";
        gsize = 8 * data_words;
        ginit = List.init 8 (fun k -> Ir.Word ((k * 0x0101) + 3));
      };
      {
        Ir.gname = "fz_tab";
        gsize = 8 * tab_len;
        ginit = List.init tab_len (fun x -> Ir.Sym_addr (fz_fname (x mod n)));
      };
    ]
  in
  B.program ~main:"main" (fs @ [ B.finish main ]) globals
