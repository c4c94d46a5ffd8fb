open R2c_machine
module Opts = R2c_compiler.Opts
module Driver = R2c_compiler.Driver
module Regalloc = R2c_compiler.Regalloc

let interp_ref p =
  match Interp.run p with
  | Ok r -> r
  | Error e -> Alcotest.failf "reference interp failed: %s" (Interp.error_to_string e)

let run_compiled ?(opts = Opts.default) p =
  let img = Driver.compile ~opts p in
  let proc = Process.start ~strict_align:true img in
  let outcome = Process.run proc in
  (outcome, proc)

(* The central differential check: compiled behaviour == interpreted
   behaviour, the analogue of the paper's browser-test validation. *)
let check_differential ?(opts = Opts.default) name p =
  let r = interp_ref p in
  let outcome, proc = run_compiled ~opts p in
  (match outcome with
  | Process.Exited code -> Alcotest.(check int) (name ^ ": exit code") r.Interp.exit_code code
  | other -> Alcotest.failf "%s: compiled run %s" name (Process.outcome_to_string other));
  Alcotest.(check string) (name ^ ": output") r.Interp.output (Process.output proc)

let test_differential_baseline () =
  List.iter (fun (name, p) -> check_differential name p) Samples.all

let test_differential_xom () =
  let opts = { Opts.default with text_perm = Perm.xo } in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_differential_aslr () =
  let opts =
    {
      Opts.default with
      text_slide = 0x7000;
      data_slide = 0x3000;
      heap_slide = 0x11000;
    }
  in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_differential_oia () =
  (* Offset-invariant addressing alone (Section 6.2.1's isolation). *)
  let opts = { Opts.default with oia = true } in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_differential_small_pool () =
  (* Starve the register allocator: everything spills. *)
  let opts = { Opts.default with reg_pool = (fun ~fname:_ -> []) } in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_differential_single_reg () =
  let opts = { Opts.default with reg_pool = (fun ~fname:_ -> [ Insn.R13 ]) } in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_symbols_present () =
  let img = Driver.compile (Samples.fib_prog 5) in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " defined") true (Image.find_symbol img s <> None))
    [ "main"; "fib"; "_start"; "malloc"; "print_int" ]

let test_functions_disjoint () =
  let img = Driver.compile Samples.indirect_prog in
  let funcs = Array.to_list img.Image.funcs in
  List.iter
    (fun (a : Image.func_info) ->
      List.iter
        (fun (b : Image.func_info) ->
          if a.fname <> b.fname then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s disjoint" a.fname b.fname)
              true
              (a.entry + a.code_len <= b.entry || b.entry + b.code_len <= a.entry))
        funcs)
    funcs

let test_text_in_region () =
  let img = Driver.compile (Samples.loop_prog 10) in
  Alcotest.(check bool) "text base" true (img.Image.text_base >= Addr.text_base);
  Alcotest.(check bool) "text end" true
    (img.Image.text_base + img.Image.text_len < Addr.text_limit);
  Image.iter_insns img (fun addr _ _ ->
      Alcotest.(check bool) "insn in text" true (Addr.region_of addr = Addr.Text))

let test_data_in_region () =
  let img = Driver.compile Samples.global_prog in
  let words = Lazy.force img.Image.data_words in
  for k = 0 to (Array.length words / 2) - 1 do
    Alcotest.(check bool) "init word in data" true (Addr.region_of words.(2 * k) = Addr.Data)
  done

let test_func_order_respected () =
  let order_seen = ref [] in
  let opts =
    {
      Opts.default with
      func_order =
        (fun names ->
          let perm = Opts.identity_perm (Array.length names) in
          Array.stable_sort (fun i j -> compare names.(i) names.(j)) perm;
          order_seen := Array.to_list (Array.map (fun i -> names.(i)) perm);
          perm);
    }
  in
  let img = Driver.compile ~opts Samples.indirect_prog in
  let entries =
    List.map (fun (f : Image.func_info) -> (f.entry, f.fname)) (Array.to_list img.Image.funcs)
  in
  let by_addr = List.sort compare entries in
  Alcotest.(check (list string)) "layout follows order" !order_seen (List.map snd by_addr)

let test_invalid_program_rejected () =
  let p =
    { Ir.funcs = []; globals = []; main = "main" }
  in
  match Driver.compile p with
  | exception Driver.Invalid_program _ -> ()
  | _ -> Alcotest.fail "expected Invalid_program"

(* Each var's interval must cover every position that mentions it and
   every position where liveness says it is live (positions number each
   block's instructions and terminator in layout order). *)
let test_regalloc_intervals_cover_uses () =
  let gens = List.init 25 (fun i -> (Printf.sprintf "gen-v2 %d" (i + 1), R2c_fuzz.Gen.v2 ~seed:(i + 1) ())) in
  List.iter
    (fun (name, (p : Ir.program)) ->
      List.iter
        (fun (f : Ir.func) ->
          let ivals = Regalloc.intervals f in
          let lv = Dataflow.Liveness.compute f in
          let covers what pos v =
            let lo, hi = ivals.(v) in
            if not (lo <= pos && pos <= hi) then
              Alcotest.failf "%s/%s: v%d %s at %d outside [%d, %d]" name f.name v what pos lo hi
          in
          Array.iter
            (fun (lo, hi) -> Alcotest.(check bool) (name ^ ": interval sane") true (lo <= hi))
            ivals;
          ignore
            (List.fold_left
               (fun (bi, start) (b : Ir.block) ->
                 let before = Dataflow.Liveness.before lv f bi in
                 Array.iteri (fun k live -> Dataflow.Iset.iter (covers "live" (start + k)) live) before;
                 List.iteri
                   (fun k i ->
                     List.iter (covers "read" (start + k)) (Dataflow.instr_uses i);
                     Option.iter (covers "written" (start + k)) (Ir.instr_def i))
                   b.body;
                 let term = start + List.length b.body in
                 List.iter (covers "read" term) (Dataflow.term_uses b.term);
                 (bi + 1, term + 1))
               (0, 0) f.blocks))
        p.funcs)
    (Samples.all @ gens)

let test_regalloc_no_conflicts () =
  (* Two variables with overlapping intervals must not share a register. *)
  List.iter
    (fun (_, (p : Ir.program)) ->
      List.iter
        (fun (f : Ir.func) ->
          let pool = Insn.[ RBX; R12; R13; R14; R15 ] in
          let res = Regalloc.allocate ~pool f in
          let ivals = Regalloc.intervals f in
          for a = 0 to f.nvars - 1 do
            for b = a + 1 to f.nvars - 1 do
              match (res.assign.(a), res.assign.(b)) with
              | Regalloc.In_reg ra, Regalloc.In_reg rb when ra = rb ->
                  let la, ha = ivals.(a) and lb, hb = ivals.(b) in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: v%d v%d disjoint" f.name a b)
                    true
                    (ha < lb || hb < la)
              | _ -> ()
            done
          done)
        p.funcs)
    Samples.all

let test_prolog_trap_skipped () =
  (* Traps in the prologue must not fire on the legitimate path. *)
  let opts = { Opts.default with prolog_traps = (fun ~fname:_ -> 3) } in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_slot_padding () =
  let opts = { Opts.default with slot_pad_bytes = (fun ~fname:_ -> 48) } in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_slot_permutation_reversal () =
  (* Reversing all frame slots must preserve behaviour. *)
  let opts =
    {
      Opts.default with
      slot_perm = (fun ~fname:_ ~n -> Array.init n (fun i -> n - 1 - i));
    }
  in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_nop_insertion () =
  let opts =
    { Opts.default with nops_before_call = (fun ~fname:_ ~site -> [ 1; (site mod 9) + 1 ]) }
  in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let test_func_padding () =
  let opts = { Opts.default with func_pad = (fun ~fname:_ -> 32) } in
  List.iter (fun (name, p) -> check_differential ~opts name p) Samples.all

let suite =
  [
    ( "compiler",
      [
        Alcotest.test_case "differential baseline" `Quick test_differential_baseline;
        Alcotest.test_case "differential xom" `Quick test_differential_xom;
        Alcotest.test_case "differential aslr" `Quick test_differential_aslr;
        Alcotest.test_case "differential oia" `Quick test_differential_oia;
        Alcotest.test_case "differential no regs" `Quick test_differential_small_pool;
        Alcotest.test_case "differential one reg" `Quick test_differential_single_reg;
        Alcotest.test_case "symbols present" `Quick test_symbols_present;
        Alcotest.test_case "functions disjoint" `Quick test_functions_disjoint;
        Alcotest.test_case "text in region" `Quick test_text_in_region;
        Alcotest.test_case "data in region" `Quick test_data_in_region;
        Alcotest.test_case "func order respected" `Quick test_func_order_respected;
        Alcotest.test_case "invalid program rejected" `Quick test_invalid_program_rejected;
        Alcotest.test_case "intervals sane" `Quick test_regalloc_intervals_cover_uses;
        Alcotest.test_case "regalloc no conflicts" `Quick test_regalloc_no_conflicts;
        Alcotest.test_case "prolog traps skipped" `Quick test_prolog_trap_skipped;
        Alcotest.test_case "slot padding" `Quick test_slot_padding;
        Alcotest.test_case "slot permutation" `Quick test_slot_permutation_reversal;
        Alcotest.test_case "nop insertion" `Quick test_nop_insertion;
        Alcotest.test_case "function padding" `Quick test_func_padding;
      ] );
  ]
