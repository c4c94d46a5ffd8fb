module B = Builder

let run_ok ?input p =
  match Interp.run ?input p with
  | Ok r -> r
  | Error e -> Alcotest.failf "interp failed: %s" (Interp.error_to_string e)

let test_validate_samples () =
  List.iter
    (fun (name, p) ->
      match Validate.check p with
      | [] -> ()
      | errs ->
          Alcotest.failf "%s: %s" name
            (String.concat "; " (List.map Validate.error_to_string errs)))
    Samples.all

let test_validate_catches_unknown_call () =
  let main = B.func "main" ~nparams:0 in
  B.call_void main (Direct "nonexistent") [];
  B.ret main (Some (Const 0));
  let p = B.program ~main:"main" [ B.finish main ] [] in
  Alcotest.(check bool) "error found" true (Validate.check p <> [])

let test_validate_catches_bad_label () =
  let f =
    {
      Ir.name = "main";
      nparams = 0;
      nvars = 0;
      slots = [||];
      blocks = [ { Ir.lbl = 0; body = []; term = Ir.Br 99 } ];
    }
  in
  let p = B.program ~main:"main" [ f ] [] in
  Alcotest.(check bool) "error found" true (Validate.check p <> [])

let test_validate_catches_arity_mismatch () =
  let f = B.func "f" ~nparams:2 in
  B.ret f (Some (B.param 0));
  let main = B.func "main" ~nparams:0 in
  B.call_void main (Direct "f") [ Const 1 ];
  B.ret main (Some (Const 0));
  let p = B.program ~main:"main" [ B.finish f; B.finish main ] [] in
  Alcotest.(check bool) "error found" true (Validate.check p <> [])

let test_validate_catches_duplicate_names () =
  let f1 = B.func "f" ~nparams:0 in
  B.ret f1 None;
  let f2 = B.func "f" ~nparams:0 in
  B.ret f2 None;
  let main = B.func "main" ~nparams:0 in
  B.ret main (Some (Const 0));
  let p = B.program ~main:"main" [ B.finish f1; B.finish f2; B.finish main ] [] in
  Alcotest.(check bool) "error found" true (Validate.check p <> [])

let test_validate_catches_bad_main () =
  let f = B.func "notmain" ~nparams:0 in
  B.ret f None;
  let p = B.program ~main:"main" [ B.finish f ] [] in
  Alcotest.(check bool) "error found" true (Validate.check p <> [])

let test_interp_arith () =
  let r = run_ok Samples.arith_prog in
  Alcotest.(check string) "output" "66\n13\n1\n8\n14\n6\n48\n12\n-8\n" r.Interp.output;
  Alcotest.(check int) "exit" 0 r.Interp.exit_code

let test_interp_fib () =
  let r = run_ok (Samples.fib_prog 12) in
  Alcotest.(check string) "fib 12" "144\n" r.Interp.output

let test_interp_loop () =
  let r = run_ok (Samples.loop_prog 100) in
  (* sum 0..99 = 4950 accumulated over 16 buckets. *)
  Alcotest.(check string) "loop checksum" "4950\n" r.Interp.output

let test_interp_globals () =
  let r = run_ok Samples.global_prog in
  Alcotest.(check string) "globals" "hello, r2c\n5\n9\n200\n114\nHello, r2c\n" r.Interp.output

let test_interp_stack_args () =
  let r = run_ok Samples.stack_args_prog in
  (* sum9 1..9 = 45; weighted = sum i*(i+1)^... computed: sum_{i=1..9} i*i+...
     args are 1..9 with weights 1..9: sum i^2? arg_i = i+1-th value (i+1)?
     args = 1..9, weight i+1 for index i: sum (i+1)*(i+1) for i=0..8 = 285.
     outer: sum8(10..16, 80) + 16 = 91+80+16 = 187. *)
  Alcotest.(check string) "stack args" "45\n285\n187\n" r.Interp.output

let test_interp_indirect () =
  let r = run_ok Samples.indirect_prog in
  Alcotest.(check string) "indirect" "14\n49\n-7\n81\n" r.Interp.output

let test_interp_heap () =
  let r = run_ok (Samples.heap_prog 20) in
  Alcotest.(check string) "heap sum 0..19" "190\n" r.Interp.output

let test_interp_bytes () =
  let r = run_ok Samples.byte_prog in
  (* sum of (3*i mod 256) for i in 0..63 = 3*sum(0..63) = 6048, minus wrap:
     3*i < 256 for i < 86, so no wrap: 6048. *)
  Alcotest.(check string) "bytes" "6048\n" r.Interp.output

let test_interp_exit () =
  let r = run_ok Samples.exit_prog in
  Alcotest.(check int) "exit code" 42 r.Interp.exit_code;
  Alcotest.(check string) "output stops" "1\n" r.Interp.output

let test_interp_pressure () =
  let r = run_ok Samples.pressure_prog in
  (* 3*sum(1..12) + sum(1..12) = 4*78 = 312. *)
  Alcotest.(check string) "pressure" "312\n" r.Interp.output

let test_interp_fuel () =
  let main = B.func "main" ~nparams:0 in
  let l = B.new_block main in
  B.br main l;
  B.switch_to main l;
  B.br main l;
  let p = B.program ~main:"main" [ B.finish main ] [] in
  match Interp.run ~fuel:1000 p with
  | Error Interp.Fuel_exhausted -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected fuel exhaustion"

let test_interp_input () =
  let main = B.func "main" ~nparams:0 in
  let buf = B.slot main 32 in
  let buf_addr = B.slot_addr main buf in
  let n = B.call main (Builtin "read_input") [ buf_addr; Const 32 ] in
  B.call_void main (Builtin "print_int") [ n ];
  let b0 = B.load8 main buf_addr 0 in
  B.call_void main (Builtin "print_int") [ b0 ];
  B.ret main (Some (Const 0));
  let p = B.program ~main:"main" [ B.finish main ] [] in
  let r = run_ok ~input:[ "hi" ] p in
  Alcotest.(check string) "input" "2\n104\n" r.Interp.output

let test_interp_sensitive_log () =
  let main = B.func "main" ~nparams:0 in
  B.call_void main (Builtin "sensitive") [ Const 111; Const 222 ];
  B.ret main (Some (Const 0));
  let p = B.program ~main:"main" [ B.finish main ] [] in
  let r = run_ok p in
  Alcotest.(check (list (pair int int))) "sensitive" [ (111, 222) ] r.Interp.sensitive

let test_builder_rejects_unterminated () =
  let f = B.func "f" ~nparams:0 in
  let _ = B.new_block f in
  B.ret f None;
  (* The second block was never terminated. *)
  match B.finish f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure"

let test_builder_rejects_double_terminate () =
  let f = B.func "f" ~nparams:0 in
  B.ret f None;
  match B.ret f None with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure"

let suite =
  [
    ( "ir",
      [
        Alcotest.test_case "validate samples" `Quick test_validate_samples;
        Alcotest.test_case "validate unknown call" `Quick test_validate_catches_unknown_call;
        Alcotest.test_case "validate bad label" `Quick test_validate_catches_bad_label;
        Alcotest.test_case "validate arity" `Quick test_validate_catches_arity_mismatch;
        Alcotest.test_case "validate duplicates" `Quick test_validate_catches_duplicate_names;
        Alcotest.test_case "validate bad main" `Quick test_validate_catches_bad_main;
        Alcotest.test_case "interp arith" `Quick test_interp_arith;
        Alcotest.test_case "interp fib" `Quick test_interp_fib;
        Alcotest.test_case "interp loop" `Quick test_interp_loop;
        Alcotest.test_case "interp globals" `Quick test_interp_globals;
        Alcotest.test_case "interp stack args" `Quick test_interp_stack_args;
        Alcotest.test_case "interp indirect" `Quick test_interp_indirect;
        Alcotest.test_case "interp heap" `Quick test_interp_heap;
        Alcotest.test_case "interp bytes" `Quick test_interp_bytes;
        Alcotest.test_case "interp exit" `Quick test_interp_exit;
        Alcotest.test_case "interp pressure" `Quick test_interp_pressure;
        Alcotest.test_case "interp fuel" `Quick test_interp_fuel;
        Alcotest.test_case "interp input" `Quick test_interp_input;
        Alcotest.test_case "interp sensitive log" `Quick test_interp_sensitive_log;
        Alcotest.test_case "builder unterminated" `Quick test_builder_rejects_unterminated;
        Alcotest.test_case "builder double terminate" `Quick test_builder_rejects_double_terminate;
      ] );
  ]
