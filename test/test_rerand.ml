(* The incremental-rerandomization battery: differential proof that the
   per-function codegen cache is invisible in the output.

   The contract under test ({!R2c_core.Pipeline.compile_incremental}):
   at any coordinates, the incrementally rebuilt image fingerprints
   byte-identical to a cold compile — across the whole Oracle config
   matrix, under random IR edits and seed moves (QCheck), and through
   the replay and fleet harnesses. The cache traffic counters are pinned
   alongside: rotations hit everything, a one-function edit misses
   exactly that function, and any body-level coordinate move (config,
   body seed, machine description) misses everything. A deliberately
   poisoned entry must be caught by both the equality gate and the
   translation validator. *)

module Q = QCheck
module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Incremental = R2c_compiler.Incremental
module Mdesc = R2c_compiler.Mdesc
module Emit = R2c_compiler.Emit
module Oracle = R2c_fuzz.Oracle
module Genprog = R2c_workloads.Genprog
module Image = R2c_machine.Image
module Insn = R2c_machine.Insn
module Tval = R2c_analysis.Tval
module RTrace = R2c_replay.Trace
module Record = R2c_replay.Record
module Replayer = R2c_replay.Replayer

let fp = Image.fingerprint

let coords cfg body_seed link_seed = { Pipeline.cfg; body_seed; link_seed }

let nfuncs (p : Ir.program) = List.length p.Ir.funcs

(* Instrumentation may synthesize helper functions (check handlers and
   the like), and every instrumented function is a cache entry — so
   "misses everything" is counted against the instrumented program. *)
let ninstr cfg body_seed p = nfuncs (fst (Pipeline.instrument ~seed:body_seed cfg p))

(* Single-function IR edits that perturb exactly one diversification
   slice: neither changes the program's call-site population, so the
   shared BTRA stream is consumed identically and every other function's
   cache key survives. *)
let edit_nvars (p : Ir.program) idx =
  let victim = List.nth p.Ir.funcs (idx mod nfuncs p) in
  let funcs =
    List.map
      (fun (f : Ir.func) -> if f == victim then { f with Ir.nvars = f.nvars + 1 } else f)
      p.Ir.funcs
  in
  ({ p with Ir.funcs }, victim.Ir.name)

let bump_add_const body =
  let hit = ref false in
  let body' =
    List.map
      (function
        | Ir.Binop (v, Ir.Add, a, Ir.Const c) when not !hit ->
            hit := true;
            Ir.Binop (v, Ir.Add, a, Ir.Const (c + 1))
        | i -> i)
      body
  in
  (body', !hit)

let edit_const (p : Ir.program) idx =
  let victim = List.nth p.Ir.funcs (idx mod nfuncs p) in
  let changed = ref false in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        if f == victim then
          {
            f with
            Ir.blocks =
              List.map
                (fun (b : Ir.block) ->
                  if !changed then b
                  else
                    let body', hit = bump_add_const b.Ir.body in
                    if hit then begin
                      changed := true;
                      { b with Ir.body = body' }
                    end
                    else b)
                f.Ir.blocks;
          }
        else f)
      p.Ir.funcs
  in
  if !changed then ({ p with Ir.funcs }, victim.Ir.name) else edit_nvars p idx

(* --- steady-state rotation: relink-only, byte-identical ------------- *)

let test_rotation_identity () =
  let p = Genprog.generate ~seed:5 ~funcs:24 in
  let cfg = Dconfig.full () in
  let r = Pipeline.rerand_create () in
  let warm, st0 = Pipeline.compile_incremental r (coords cfg 3 (Some 100)) p in
  Alcotest.(check int) "warm build compiles every function" (ninstr cfg 3 p)
    st0.Incremental.misses;
  Alcotest.(check string) "warm build == cold compile"
    (fp (Pipeline.compile_cold (coords cfg 3 (Some 100)) p))
    (fp warm);
  for ls = 101 to 104 do
    let c = coords cfg 3 (Some ls) in
    let img, st = Pipeline.compile_incremental r c p in
    Alcotest.(check int)
      (Printf.sprintf "rotation %d recompiles nothing" ls)
      0 st.Incremental.misses;
    Alcotest.(check string)
      (Printf.sprintf "rotation %d == cold compile" ls)
      (fp (Pipeline.compile_cold c p))
      (fp img)
  done

(* The fingerprint is the equality oracle, so it must see a change to any
   one field: one instruction operand (an immediate, a register), one
   symbol address, one data word, one booby-trap flag. The image under
   test is an incremental rotation, which still fingerprints equal to its
   cold compile. *)
let test_fingerprint_sees_one_field () =
  let p = Genprog.generate ~seed:5 ~funcs:24 in
  let cfg = Dconfig.full () in
  let r = Pipeline.rerand_create () in
  ignore (Pipeline.compile_incremental r (coords cfg 3 (Some 100)) p);
  let c = coords cfg 3 (Some 101) in
  let img, _ = Pipeline.compile_incremental r c p in
  let base = fp img in
  Alcotest.(check string) "rotation == cold compile" (fp (Pipeline.compile_cold c p)) base;
  let changed what img' =
    Alcotest.(check bool) (what ^ " changes the fingerprint") false (String.equal base (fp img'))
  in
  (* The first body instruction [edit] changes, in a copy of its body. *)
  let with_insn edit =
    let edited = ref false in
    let patch (c : Image.chunk) =
      let b = c.c_body in
      match if !edited then None else Array.find_index (fun i -> edit i <> None) b.b_insns with
      | None -> c
      | Some k ->
          edited := true;
          let insns = Array.copy b.b_insns in
          insns.(k) <- Option.get (edit insns.(k));
          Image.with_body img c (Image.body ~locals:[] insns b.b_sizes)
    in
    let img' = Image.with_chunks img (Array.map patch img.Image.chunks) in
    Alcotest.(check bool) "an instruction to edit" true !edited;
    img'
  in
  changed "one immediate"
    (with_insn (function
      | Insn.Mov (d, Insn.Imm (Insn.Abs v)) -> Some (Insn.Mov (d, Insn.Imm (Insn.Abs (v + 1))))
      | _ -> None));
  changed "one register"
    (with_insn (function
      | Insn.Mov (Insn.Reg r, src) ->
          Some (Insn.Mov (Insn.Reg (if r = Insn.RAX then Insn.RBX else Insn.RAX), src))
      | _ -> None));
  let sym_addrs = Array.copy img.Image.sym_addrs in
  sym_addrs.(0) <- sym_addrs.(0) + 1;
  changed "one symbol address" { img with Image.sym_addrs };
  let words = Array.copy (Image.force img.Image.data_words) in
  Alcotest.(check bool) "a data word" true (Array.length words >= 2);
  words.(1) <- words.(1) + 1;
  changed "one data word" (Image.with_data img ~data_len:img.Image.data_len (Lazy.from_val words));
  let funcs = Array.copy img.Image.funcs in
  funcs.(0) <- { (funcs.(0)) with Image.is_booby_trap = not funcs.(0).Image.is_booby_trap };
  changed "one booby-trap flag" { img with Image.funcs }

(* Rebuilding at identical coordinates is also a pure relink (the memo
   path), and the cache grows only on misses. *)
let test_same_coords_all_hits () =
  let p = Genprog.generate ~seed:9 ~funcs:12 in
  let c = coords (Dconfig.full ()) 3 (Some 50) in
  let r = Pipeline.rerand_create () in
  let img1, _ = Pipeline.compile_incremental r c p in
  let size1 = Incremental.size (Pipeline.rerand_cache r) in
  let img2, st = Pipeline.compile_incremental r c p in
  Alcotest.(check int) "no recompiles" 0 st.Incremental.misses;
  Alcotest.(check int) "cache did not grow" size1
    (Incremental.size (Pipeline.rerand_cache r));
  Alcotest.(check string) "same image" (fp img1) (fp img2)

(* --- the Oracle config matrix: rotate + edit at every point ---------- *)

let test_matrix_identity () =
  let p = Genprog.generate ~seed:7 ~funcs:10 in
  List.iter
    (fun (name, cfg) ->
      let r = Pipeline.rerand_create () in
      let _, st0 = Pipeline.compile_incremental r (coords cfg 3 (Some 7)) p in
      Alcotest.(check int) (name ^ ": warm misses") (ninstr cfg 3 p)
        st0.Incremental.misses;
      let c1 = coords cfg 3 (Some 8) in
      let img1, st1 = Pipeline.compile_incremental r c1 p in
      Alcotest.(check int) (name ^ ": rotation misses") 0 st1.Incremental.misses;
      Alcotest.(check string)
        (name ^ ": rotation == cold")
        (fp (Pipeline.compile_cold c1 p))
        (fp img1);
      let p2, victim = edit_const p 5 in
      let c2 = coords cfg 3 (Some 9) in
      let img2, st2 = Pipeline.compile_incremental r c2 p2 in
      Alcotest.(check int) (name ^ ": edit misses one") 1 st2.Incremental.misses;
      Alcotest.(check (list string)) (name ^ ": edit missed the victim") [ victim ]
        st2.Incremental.missed;
      Alcotest.(check string)
        (name ^ ": edit == cold")
        (fp (Pipeline.compile_cold c2 p2))
        (fp img2))
    Oracle.matrix

(* --- cache invalidation: every body-level coordinate must miss ------- *)

let test_invalidation () =
  let p = Genprog.generate ~seed:13 ~funcs:8 in
  let full = Dconfig.full () in
  let r = Pipeline.rerand_create () in
  let _ = Pipeline.compile_incremental r (coords full 3 (Some 5)) p in
  (* Config change: every slice digest moves. *)
  let _, st = Pipeline.compile_incremental r (coords Dconfig.full_checked 3 (Some 5)) p in
  Alcotest.(check int) "config change misses all"
    (ninstr Dconfig.full_checked 3 p)
    st.Incremental.misses;
  (* Body-seed change: instrumentation re-randomizes, every key moves. *)
  let _, st = Pipeline.compile_incremental r (coords full 4 (Some 5)) p in
  Alcotest.(check int) "body-seed change misses all" (ninstr full 4 p)
    st.Incremental.misses;
  (* Returning to cached coordinates hits again: invalidation is keyed,
     not destructive. *)
  let _, st = Pipeline.compile_incremental r (coords full 3 (Some 6)) p in
  Alcotest.(check int) "original coordinates still cached" 0 st.Incremental.misses;
  (* Machine-description change: the mdesc fingerprint is in every key. A
     second profile over the same encoder: callee-saved allocation order
     reversed, a wider PLT stride. *)
  let r15 =
    {
      Mdesc.x86_64 with
      mname = "x86_64-r15";
      callee_saved = Insn.[ R15; R14; R13; R12; RBX ];
      plt_entry_bytes = 32;
    }
  in
  let c = coords full 3 (Some 6) in
  let img, st = Pipeline.compile_incremental ~mdesc:r15 r c p in
  Alcotest.(check int) "mdesc change misses all" (ninstr full 3 p)
    st.Incremental.misses;
  Alcotest.(check string) "mdesc rebuild == cold at same mdesc"
    (fp (Pipeline.compile_cold ~mdesc:r15 c p))
    (fp img)

(* --- stale-cache plant: equality gate and Tval both catch it --------- *)

let twist_func (f : Ir.func) =
  let changed = ref false in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        if !changed then b
        else
          let body', hit = bump_add_const b.Ir.body in
          if hit then begin
            changed := true;
            { b with Ir.body = body' }
          end
          else b)
      f.Ir.blocks
  in
  if !changed then Some { f with Ir.blocks } else None

let test_stale_plant_caught () =
  let p = Genprog.generate ~seed:21 ~funcs:10 in
  let cfg = Dconfig.full () in
  let c0 = coords cfg 3 (Some 30) in
  let r = Pipeline.rerand_create () in
  let _ = Pipeline.compile_incremental r c0 p in
  (* Reconstruct the coordinates' instrumented program and opts — the
     exact keying context — and plant a miscompiled body (one Add
     constant off by one) under some function's true key. *)
  let ip, opts = Pipeline.instrument ~seed:3 cfg p in
  let victim, twisted =
    match
      List.filter_map
        (fun f -> match twist_func f with Some t -> Some (f, t) | None -> None)
        ip.Ir.funcs
    with
    | (f, t) :: _ -> (f, t)
    | [] -> Alcotest.fail "no twistable function in the generated program"
  in
  let payload = Emit.emit_func_meta ~opts twisted in
  Pipeline.poison r c0 ~opts victim ~payload;
  (* The next rotation links the stale body without recompiling... *)
  let c1 = coords cfg 3 (Some 31) in
  let img, meta, st, ip1 = Pipeline.compile_incremental_with_meta r c1 p in
  Alcotest.(check int) "plant is a cache hit" 0 st.Incremental.misses;
  (* ...the byte-identity gate catches it... *)
  Alcotest.(check bool) "equality gate catches the plant" false
    (String.equal (fp (Pipeline.compile_cold c1 p)) (fp img));
  (* ...and so does the translation validator. *)
  let report = Tval.validate ~img ~meta ip1 in
  Alcotest.(check bool) "Tval flags the planted body" true
    (report.Tval.findings <> []);
  (* A fresh handle at the same coordinates is clean again. *)
  let r2 = Pipeline.rerand_create () in
  let clean, _ = Pipeline.compile_incremental r2 c1 p in
  Alcotest.(check string) "fresh cache is clean"
    (fp (Pipeline.compile_cold c1 p))
    (fp clean)

(* --- the cached link plan: a relink is a cold link, table by table ---- *)

let sorted_bindings h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
let sorted_keys h = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h [])

(* Every placed table of [img] against a cold link at the same
   coordinates, one by one, so a mismatch names the table. *)
let check_same_link what (cold : Image.t) (img : Image.t) =
  let wrong = ref [] and ncold = ref 0 and nimg = ref 0 in
  Image.iter_symbols cold (fun name a ->
      incr ncold;
      match Image.find_symbol img name with
      | Some b when b = a -> ()
      | _ -> wrong := name :: !wrong);
  Image.iter_symbols img (fun _ _ -> incr nimg);
  Alcotest.(check (list string)) (what ^ ": symbols at cold addresses") [] !wrong;
  Alcotest.(check int) (what ^ ": symbol count") !ncold !nimg;
  Alcotest.(check (list (pair int int))) (what ^ ": unwind sites")
    (sorted_bindings (Image.sites cold).unwind_sites) (sorted_bindings (Image.sites img).unwind_sites);
  Alcotest.(check (list int)) (what ^ ": checked sites")
    (sorted_keys (Image.sites cold).checked_sites) (sorted_keys (Image.sites img).checked_sites);
  Alcotest.(check (list int)) (what ^ ": code-pointer slots")
    (sorted_keys (Lazy.force cold.code_ptr_slots))
    (sorted_keys (Lazy.force img.code_ptr_slots));
  Alcotest.(check (array int)) (what ^ ": data words")
    (Lazy.force cold.data_words) (Lazy.force img.data_words)

let full_checked_rotations () =
  let p = Genprog.generate ~seed:5 ~funcs:12 in
  let cfg = Dconfig.full_checked in
  let r = Pipeline.rerand_create () in
  let _ = Pipeline.compile_incremental r (coords cfg 3 (Some 10)) p in
  (p, cfg, r)

let test_relink_tables_equal_cold () =
  let p, cfg, r = full_checked_rotations () in
  let prev = ref None in
  for ls = 11 to 13 do
    let c = coords cfg 3 (Some ls) in
    let img, st = Pipeline.compile_incremental r c p in
    let what = Printf.sprintf "rotation %d" ls in
    Alcotest.(check int) (what ^ " recompiles nothing") 0 st.Incremental.misses;
    let cold = Pipeline.compile_cold c p in
    Alcotest.(check bool) (what ^ ": checked sites exist") true
      (Hashtbl.length (Image.sites cold).checked_sites > 0);
    check_same_link what cold img;
    (* Rotations place one cached plan: its symbol table is shared. *)
    Option.iter
      (fun (q : Image.t) ->
        Alcotest.(check bool) (what ^ " places the cached plan") true (q.sym_ids == img.sym_ids))
      !prev;
    prev := Some img
  done

(* A poisoned entry drops the cached plan: the next relink places the
   planted body, and later rotations keep it. *)
let test_poison_reaches_relink () =
  let p, cfg, r = full_checked_rotations () in
  let before, _ = Pipeline.compile_incremental r (coords cfg 3 (Some 11)) p in
  let ip, opts = Pipeline.instrument ~seed:3 cfg p in
  let victim, twisted =
    match
      List.filter_map
        (fun f -> match twist_func f with Some t -> Some (f, t) | None -> None)
        ip.Ir.funcs
    with
    | (f, t) :: _ -> (f, t)
    | [] -> Alcotest.fail "no twistable function in the generated program"
  in
  let payload = Emit.emit_func_meta ~opts twisted in
  Pipeline.poison r (coords cfg 3 (Some 11)) ~opts victim ~payload;
  let planted (img : Image.t) =
    let entry = Image.symbol img victim.Ir.name in
    match Array.find_opt (fun (c : Image.chunk) -> c.c_entry = entry) img.chunks with
    | Some c -> c.c_body.b_insns = (fst payload).R2c_compiler.Asm.insns
    | None -> false
  in
  Alcotest.(check bool) "the plant differs from the cached body" false (planted before);
  let after, st = Pipeline.compile_incremental r (coords cfg 3 (Some 12)) p in
  Alcotest.(check int) "plant is a cache hit" 0 st.Incremental.misses;
  Alcotest.(check bool) "plan rebuilt" false (before.sym_ids == after.sym_ids);
  Alcotest.(check bool) "relink places the planted body" true (planted after);
  let later, _ = Pipeline.compile_incremental r (coords cfg 3 (Some 13)) p in
  Alcotest.(check bool) "later rotation reuses the new plan" true (after.sym_ids == later.sym_ids);
  Alcotest.(check bool) "later rotation keeps the planted body" true (planted later)

(* --- layouts pinned across linker changes ------------------------------ *)

(* Fingerprints recorded while the order hooks still took and returned
   names and the function pad was drawn once per function: a cold compile
   and a steady-state rotation at each of these coordinates must still
   place every function, global and pad where that linker did. *)
let pinned_layouts =
  [
    ("genprog-200", "full", 1100, "10f09d8e21d5cd49907e1fa28f479f22");
    ("genprog-200", "full", 1101, "ae05e8a9c75f13142584ea57773529b6");
    ("genprog-200", "full", 5555, "b3456d6ebe7ed5a924bd04bbe21880e2");
    ("genprog-200", "full_checked", 1100, "bd3112991279d1c25d4e8cc133bcf7b5");
    ("genprog-200", "full_checked", 1101, "2dba486fe824d51e7debf4d3a8887dfe");
    ("genprog-200", "full_checked", 5555, "332364321f96aa822b932c3405b11d09");
    ("fleetapp", "full", 1100, "e170d669dba29ab1816022426b7e021f");
    ("fleetapp", "full", 1101, "eec910d213d9a4c6dcded3e1c01c61a6");
    ("fleetapp", "full", 5555, "f4c86e6a2636de60534adbaa5add46be");
    ("fleetapp", "full_checked", 1100, "42f6b47b370bfabe72164dd1ce2c0c27");
    ("fleetapp", "full_checked", 1101, "843d85f8339636ad463601c16920e511");
    ("fleetapp", "full_checked", 5555, "64bf763a49880ad3143d8426df6bc826");
  ]

let test_pinned_layouts () =
  let progs =
    [
      ("genprog-200", Genprog.generate ~seed:1 ~funcs:200);
      ("fleetapp", R2c_workloads.Fleetapp.program ());
    ]
  in
  List.iter
    (fun (pname, p) ->
      List.iter
        (fun (cname, cfg) ->
          let r = Pipeline.rerand_create () in
          ignore (Pipeline.compile_incremental r (coords cfg 7 (Some 1)) p);
          List.iter
            (fun (pn, cn, link, want) ->
              if pn = pname && cn = cname then begin
                let c = coords cfg 7 (Some link) in
                let what = Printf.sprintf "%s %s link %d" pn cn link in
                Alcotest.(check string) (what ^ ": cold") want (fp (Pipeline.compile_cold c p));
                let img, st = Pipeline.compile_incremental r c p in
                Alcotest.(check int) (what ^ ": a rotation") 0 st.Incremental.misses;
                Alcotest.(check string) (what ^ ": rotated") want (fp img)
              end)
            pinned_layouts)
        [ ("full", Dconfig.full ()); ("full_checked", Dconfig.full_checked) ])
    progs

(* A steady-state rotation places the cached plan by index arithmetic:
   no name lookups, no site tables. Its minor-heap allocation is
   deterministic on one domain; 27,935 words is what it took when the
   order hooks returned names and the site tables were built eagerly
   (Genprog-200 under full, this test's coordinates). *)
let test_rotation_allocation () =
  let p = Genprog.generate ~seed:11 ~funcs:200 in
  let r = Pipeline.rerand_create () in
  let c link = coords (Dconfig.full ()) 5 (Some link) in
  ignore (Pipeline.compile_incremental ~jobs:1 r (c 100) p);
  ignore (Pipeline.compile_incremental ~jobs:1 r (c 101) p);
  let w0 = Gc.minor_words () in
  let img, st = Pipeline.compile_incremental ~jobs:1 r (c 102) p in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity img);
  Alcotest.(check int) "a steady-state rotation" 0 st.Incremental.misses;
  let bound = 27_935. *. 2. /. 3. in
  if words > bound then
    Alcotest.failf "a rotation allocated %.0f minor words, over the bound %.0f" words bound

(* --- QCheck: random edit/seed/config walks vs cold compiles ---------- *)

let prop_incremental_equals_cold =
  Q.Test.make ~count:10 ~name:"incremental == cold under random edits and moves"
    Q.(triple (int_bound 1_000) (int_bound 100) (int_bound 1_000))
    (fun (prog_seed, cfg_idx, edit_seed) ->
      let _, cfg = List.nth Oracle.matrix (cfg_idx mod List.length Oracle.matrix) in
      let p = Genprog.generate ~seed:prog_seed ~funcs:(6 + (prog_seed mod 6)) in
      let body_seed = 1 + (edit_seed mod 5) in
      let r = Pipeline.rerand_create () in
      let _, st0 = Pipeline.compile_incremental r (coords cfg body_seed (Some 1)) p in
      let ok0 = st0.Incremental.misses = ninstr cfg body_seed p in
      (* Two link rotations: all hits, final one checked against cold. *)
      let _ = Pipeline.compile_incremental r (coords cfg body_seed (Some 2)) p in
      let c_rot = coords cfg body_seed (Some 3) in
      let img_rot, st_rot = Pipeline.compile_incremental r c_rot p in
      let ok_rot =
        st_rot.Incremental.misses = 0
        && String.equal (fp (Pipeline.compile_cold c_rot p)) (fp img_rot)
      in
      (* A random single-function edit: exactly one miss, still cold. *)
      let p2, victim =
        if edit_seed mod 2 = 0 then edit_nvars p edit_seed else edit_const p edit_seed
      in
      let c_edit = coords cfg body_seed (Some 4) in
      let img_edit, st_edit = Pipeline.compile_incremental r c_edit p2 in
      let ok_edit =
        st_edit.Incremental.misses = 1
        && st_edit.Incremental.missed = [ victim ]
        && String.equal (fp (Pipeline.compile_cold c_edit p2)) (fp img_edit)
      in
      (* A body-seed move: everything recompiles, still cold. *)
      let c_move = coords cfg (body_seed + 7) (Some 4) in
      let img_move, st_move = Pipeline.compile_incremental r c_move p2 in
      let ok_move =
        st_move.Incremental.misses = ninstr cfg (body_seed + 7) p2
        && String.equal (fp (Pipeline.compile_cold c_move p2)) (fp img_move)
      in
      ok0 && ok_rot && ok_edit && ok_move)

(* --- replay regression: traces replayed on incremental rebuilds ------ *)

(* The echo workload test_replay records: enough builtin traffic for a
   meaningful profile, small enough to capture in-process. *)
let echo_prog ~rounds =
  let module B = Builder in
  let main = B.func "main" ~nparams:0 in
  let s_i = B.slot main 8 in
  let i_addr = B.slot_addr main s_i in
  let s_buf = B.slot main 64 in
  B.store main i_addr 0 (Ir.Const 0);
  let header = B.new_block main and body = B.new_block main and stop = B.new_block main in
  B.br main header;
  B.switch_to main header;
  let iv = B.load main i_addr 0 in
  let cmp = B.cmp main Ir.Lt iv (Ir.Const rounds) in
  B.cond_br main cmp body stop;
  B.switch_to main body;
  let n = B.call main (Ir.Builtin "read_input") [ B.slot_addr main s_buf; Ir.Const 64 ] in
  B.call_void main (Ir.Builtin "print_int") [ n ];
  let iv2 = B.load main i_addr 0 in
  let iv3 = B.binop main Ir.Add iv2 (Ir.Const 1) in
  B.store main i_addr 0 iv3;
  B.br main header;
  B.switch_to main stop;
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main" [ B.finish main ] []

let test_replay_incremental () =
  let program = echo_prog ~rounds:6 in
  let meta =
    { RTrace.workload = "echo"; config = "full"; seed = 3; machine = "EPYC Rome";
      fuel = 2_000_000 }
  in
  let t =
    match Record.capture ~fuel:2_000_000 ~meta ~program ~inputs:[ "ab"; "xyz" ] () with
    | Ok t -> t
    | Error e -> Alcotest.fail ("capture failed: " ^ e)
  in
  let cfg = List.assoc t.RTrace.meta.RTrace.config R2c_core.Dconfig.named in
  let r = Pipeline.rerand_create () in
  (* Warm the cache at a rotated link seed, then rebuild at the trace's
     recorded coordinates: the replayed image is a pure relink. *)
  let _ =
    Pipeline.compile_incremental r
      (coords cfg t.RTrace.meta.RTrace.seed (Some 42))
      t.RTrace.program
  in
  let image, st =
    Pipeline.compile_incremental r
      (coords cfg t.RTrace.meta.RTrace.seed None)
      t.RTrace.program
  in
  Alcotest.(check int) "recorded-coordinate rebuild is relink-only" 0
    st.Incremental.misses;
  match Replayer.check ~image t with
  | Error e -> Alcotest.fail ("replay failed: " ^ e)
  | Ok v ->
      Alcotest.(check (list string)) "fidelity gate passes on the incremental rebuild"
        [] v.Replayer.failures

(* The on-disk corpus, when present (bench/replays ships two traces):
   every trace must pass its fidelity gate on an incrementally rebuilt
   image at the recorded coordinates. *)
let corpus_dir () =
  List.find_opt Sys.file_exists [ "../bench/replays"; "bench/replays" ]

let test_replay_corpus_incremental () =
  match corpus_dir () with
  | None -> ()  (* corpus not shipped to this checkout; covered above *)
  | Some dir ->
      List.iter
        (fun path ->
          match RTrace.load path with
          | Error e -> Alcotest.fail (Filename.basename path ^ ": " ^ e)
          | Ok t when t.RTrace.meta.RTrace.config = "baseline" -> ()
          | Ok t ->
              let cfg = List.assoc t.RTrace.meta.RTrace.config R2c_core.Dconfig.named in
              let r = Pipeline.rerand_create () in
              let image, _ =
                Pipeline.compile_incremental r
                  (coords cfg t.RTrace.meta.RTrace.seed None)
                  t.RTrace.program
              in
              (match Replayer.check ~image t with
              | Error e -> Alcotest.fail (Filename.basename path ^ ": " ^ e)
              | Ok v ->
                  Alcotest.(check (list string))
                    (Filename.basename path ^ ": fidelity on incremental rebuild")
                    [] v.Replayer.failures))
        (RTrace.files ~dir)

(* --- fleet: epoch rotations through the cache drop nothing ----------- *)

let test_fleet_incremental_rotation () =
  let r =
    R2c_harness.Fleetbench.run ~seed:11 ~requests:10_000 ~shards:2
      ~epoch_cycles:1_500_000 ~incremental:true ()
  in
  let f = r.R2c_harness.Fleetbench.fleet in
  Alcotest.(check bool) "campaign rotated" true
    (f.R2c_runtime.Fleet.rotations >= 1);
  Alcotest.(check int) "rotation drops zero with incremental builds" 0
    f.R2c_runtime.Fleet.rotation_drops;
  Alcotest.(check int) "no canary failures" 0 f.R2c_runtime.Fleet.canary_failures

let suite =
  [
    ( "rerand",
      [
        Alcotest.test_case "rotation identity" `Quick test_rotation_identity;
        Alcotest.test_case "fingerprint sees one field" `Quick test_fingerprint_sees_one_field;
        Alcotest.test_case "same coordinates all hits" `Quick test_same_coords_all_hits;
        Alcotest.test_case "config matrix identity" `Slow test_matrix_identity;
        Alcotest.test_case "invalidation" `Quick test_invalidation;
        Alcotest.test_case "stale plant caught" `Quick test_stale_plant_caught;
        Alcotest.test_case "relink tables equal cold" `Quick test_relink_tables_equal_cold;
        Alcotest.test_case "poison reaches the relink" `Quick test_poison_reaches_relink;
        Alcotest.test_case "pinned layouts" `Quick test_pinned_layouts;
        Alcotest.test_case "rotation allocation" `Quick test_rotation_allocation;
        QCheck_alcotest.to_alcotest prop_incremental_equals_cold;
        Alcotest.test_case "replay on incremental rebuild" `Quick
          test_replay_incremental;
        Alcotest.test_case "replay corpus on incremental rebuilds" `Slow
          test_replay_corpus_incremental;
        Alcotest.test_case "fleet rotation with incremental builds" `Slow
          test_fleet_incremental_rotation;
      ] );
  ]
