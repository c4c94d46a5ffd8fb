(* Linker-level error handling and layout invariants. *)

module Opts = R2c_compiler.Opts
module Link = R2c_compiler.Link
module Asm = R2c_compiler.Asm
module B = Builder
open R2c_machine

let raw name insns = Asm.of_raw { Opts.rname = name; rinsns = insns; rbooby_trap = false }

let test_duplicate_function_rejected () =
  match
    Link.link ~opts:Opts.default ~main:"main"
      [ raw "main" [ Insn.Ret ]; raw "main" [ Insn.Ret ] ]
      []
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate function must be rejected"

let test_duplicate_global_function_clash () =
  let p =
    B.program ~main:"main"
      [
        (let fb = B.func "main" ~nparams:0 in
         B.ret fb (Some (Ir.Const 0));
         B.finish fb);
      ]
      [ { Ir.gname = "main"; gsize = 8; ginit = [] } ]
  in
  Alcotest.(check bool) "validator flags shadowing" true (Validate.check p <> [])

let test_undefined_symbol_rejected () =
  match
    Link.link ~opts:Opts.default ~main:"main"
      [ raw "main" [ Insn.Jmp (Insn.TSym ("nowhere", 0)); Insn.Ret ] ]
      []
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undefined symbol must be rejected"

(* An order hook must return a permutation of the plan's indices: a wrong
   length, an index out of range and a repeated index are each rejected
   with their own message. *)
let reject what f msg =
  match f () with
  | exception Invalid_argument m -> Alcotest.(check string) what msg m
  | _ -> Alcotest.failf "%s: link succeeded" what

let test_func_order_must_be_permutation () =
  let link order =
    let opts = { Opts.default with Opts.func_order = (fun _ -> order) } in
    Link.link ~opts ~main:"main" [ raw "main" [ Insn.Ret ]; raw "g" [ Insn.Ret ] ] []
  in
  reject "short" (fun () -> link [| 0 |]) "link: func_order changed the number of functions";
  reject "long" (fun () -> link [| 0; 1; 1 |]) "link: func_order changed the number of functions";
  reject "past the end" (fun () -> link [| 0; 2 |]) "link: func_order invented index 2";
  reject "negative" (fun () -> link [| -1; 0 |]) "link: func_order invented index -1";
  reject "duplicate" (fun () -> link [| 1; 1 |]) "link: duplicate symbol g";
  let img = link [| 1; 0 |] in
  Alcotest.(check bool) "a permutation is placed" true (Image.symbol img "g" < Image.symbol img "main")

let test_global_order_must_be_permutation () =
  let g name = { Ir.gname = name; gsize = 8; ginit = [] } in
  let link order pads =
    let opts = { Opts.default with Opts.global_order = (fun _ -> (order, pads)) } in
    Link.link ~opts ~main:"main" [ raw "main" [ Insn.Ret ] ] [ g "a"; g "b" ]
  in
  let changed = "link: global_order changed the number of globals" in
  reject "short" (fun () -> link [| 0 |] [| 0; 0 |]) changed;
  reject "pads short" (fun () -> link [| 0; 1 |] [| 0 |]) changed;
  reject "long" (fun () -> link [| 0; 1; 0 |] [| 0; 0; 0 |]) changed;
  reject "past the end" (fun () -> link [| 2; 0 |] [| 0; 0 |]) "link: global_order invented index 2";
  reject "negative" (fun () -> link [| 0; -1 |] [| 0; 0 |]) "link: global_order invented index -1";
  reject "duplicate" (fun () -> link [| 0; 0 |] [| 0; 0 |]) "link: duplicate symbol a";
  let img = link [| 1; 0 |] [| 56; 0 |] in
  Alcotest.(check int) "b first, then its pad" (Image.symbol img "b" + 8 + 56) (Image.symbol img "a")

let test_data_overflow_rejected () =
  (* A single global bigger than the data window. *)
  let huge = { Ir.gname = "huge"; gsize = 0x2000_0000_0000; ginit = [] } in
  match Link.link ~opts:Opts.default ~main:"main" [ raw "main" [ Insn.Ret ] ] [ huge ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "data overflow must be rejected"

let test_builtins_have_fixed_plt_slots () =
  let img = Link.link ~opts:Opts.default ~main:"main" [ raw "main" [ Insn.Ret ] ] [] in
  List.iteri
    (fun i name ->
      Alcotest.(check int) (name ^ " slot")
        (img.Image.text_base + (16 * i))
        (Image.symbol img name))
    Image.builtin_names

let test_entry_is_start () =
  let img = Link.link ~opts:Opts.default ~main:"main" [ raw "main" [ Insn.Ret ] ] [] in
  Alcotest.(check int) "entry = _start" (Image.symbol img "_start") img.Image.entry

let test_constructors_run_before_main () =
  (* _start calls the constructor, then main; the ctor's print precedes
     main's. *)
  let ctor = B.func "ctor" ~nparams:0 in
  B.call_void ctor (Ir.Builtin "print_int") [ Ir.Const 1 ];
  B.ret ctor None;
  let main = B.func "main" ~nparams:0 in
  B.call_void main (Ir.Builtin "print_int") [ Ir.Const 2 ];
  B.ret main (Some (Ir.Const 0));
  let p = B.program ~main:"main" [ B.finish ctor; B.finish main ] [] in
  let opts = { Opts.default with Opts.constructors = [ "ctor" ] } in
  let img = R2c_compiler.Driver.compile ~opts p in
  let proc = Process.start img in
  (match Process.run proc with
  | Process.Exited 0 -> ()
  | o -> Alcotest.failf "%s" (Process.outcome_to_string o));
  Alcotest.(check string) "ctor first" "1\n2\n" (Process.output proc)

let test_global_padding_separates () =
  (* Padding requested between globals must appear in the layout. *)
  let g1 = { Ir.gname = "g1"; gsize = 8; ginit = [] } in
  let g2 = { Ir.gname = "g2"; gsize = 8; ginit = [] } in
  let opts =
    {
      Opts.default with
      Opts.global_order =
        (fun gs ->
          let n = Array.length gs in
          (Opts.identity_perm n, Array.make n 128));
    }
  in
  let img = Link.link ~opts ~main:"main" [ raw "main" [ Insn.Ret ] ] [ g1; g2 ] in
  let a1 = Image.symbol img "g1" and a2 = Image.symbol img "g2" in
  Alcotest.(check bool) "padding honoured" true (abs (a2 - a1) >= 128)

(* --- the plan's checks, on the cold and the incremental path ---------- *)

module Driver = R2c_compiler.Driver
module Incremental = R2c_compiler.Incremental

let ret_func name =
  let fb = B.func name ~nparams:0 in
  B.ret fb (Some (Ir.Const 0));
  B.finish fb

(* [p] under [opts] fails with exactly [msg] through a cold compile and
   through a keyed incremental build — twice, so a failed plan is never
   cached as a good one. *)
let check_link_error what ~opts p msg =
  let expect path f =
    match f () with
    | exception Invalid_argument m -> Alcotest.(check string) (what ^ " (" ^ path ^ ")") msg m
    | _ -> Alcotest.failf "%s (%s): link succeeded" what path
  in
  expect "cold" (fun () -> Driver.compile ~opts p);
  let t = Incremental.create () in
  for _ = 1 to 2 do
    expect "incremental" (fun () -> Incremental.build_with_meta ~key_token:"k" t ~opts ~salt:"s" p)
  done

let test_global_collides_with_label () =
  let p = B.program ~main:"main" [ ret_func "main" ] [] in
  Alcotest.(check bool) "main.L0 is a label" true
    (Image.find_symbol (Driver.compile p) "main.L0" <> None);
  let p = B.program ~main:"main" [ ret_func "main" ] [ { Ir.gname = "main.L0"; gsize = 8; ginit = [] } ] in
  check_link_error "global vs local label" ~opts:Opts.default p "link: duplicate symbol main.L0"

let test_raw_collides_with_ir_function () =
  let p = B.program ~main:"main" [ ret_func "main"; ret_func "helper" ] [] in
  let opts =
    {
      Opts.default with
      Opts.raw_funcs = [ { Opts.rname = "helper"; rinsns = [ Insn.Ret ]; rbooby_trap = true } ];
    }
  in
  (* Two functions of one name keep their own message. *)
  check_link_error "raw vs IR function" ~opts p "link: duplicate function helper"

let test_initialiser_names_missing_symbol () =
  let p = B.program ~main:"main" [ ret_func "main" ] [] in
  (* Synthesized data skips IR validation: only the linker can catch it. *)
  let opts =
    {
      Opts.default with
      Opts.extra_globals = [ { Ir.gname = "tbl"; gsize = 8; ginit = [ Ir.Sym_addr "nowhere" ] } ];
    }
  in
  check_link_error "initialiser" ~opts p "link: undefined symbol nowhere"

let suite =
  [
    ( "linker",
      [
        Alcotest.test_case "duplicate function" `Quick test_duplicate_function_rejected;
        Alcotest.test_case "global shadows function" `Quick test_duplicate_global_function_clash;
        Alcotest.test_case "undefined symbol" `Quick test_undefined_symbol_rejected;
        Alcotest.test_case "func_order permutation" `Quick test_func_order_must_be_permutation;
        Alcotest.test_case "global_order permutation" `Quick test_global_order_must_be_permutation;
        Alcotest.test_case "data overflow" `Quick test_data_overflow_rejected;
        Alcotest.test_case "plt slots fixed" `Quick test_builtins_have_fixed_plt_slots;
        Alcotest.test_case "entry is _start" `Quick test_entry_is_start;
        Alcotest.test_case "constructors first" `Quick test_constructors_run_before_main;
        Alcotest.test_case "global padding" `Quick test_global_padding_separates;
        Alcotest.test_case "global vs local label" `Quick test_global_collides_with_label;
        Alcotest.test_case "raw vs IR function" `Quick test_raw_collides_with_ir_function;
        Alcotest.test_case "initialiser undefined" `Quick test_initialiser_names_missing_symbol;
      ] );
  ]
