open R2c_machine

let test_sizes_positive () =
  let samples =
    Insn.
      [
        Mov (Reg RAX, Reg RBX);
        Mov (Reg RAX, Imm (Abs 5));
        Mov (Reg RAX, Imm (Abs 0x5555_5555_0000));
        Mov (Reg RAX, Mem (mem ~base:RSP ~disp:16 ()));
        Lea (RAX, mem ~base:RSP ~disp:8 ());
        Push (Reg RAX);
        Push (Imm (Abs 0x400000));
        Pop RBX;
        Binop (Add, RAX, Imm (Abs 1));
        Cmp (Reg RAX, Imm (Abs 0));
        Jmp (TAbs 0x400000);
        Call (TAbs 0x400000);
        Ret;
        Nop 5;
        Trap;
        Vload (13, mem ~base:RSP ());
        Vstore (mem ~base:RSP (), 13);
        Vzeroupper;
        Halt;
      ]
  in
  List.iter
    (fun i -> Alcotest.(check bool) (Insn.to_string i) true (Insn.size i > 0))
    samples

let test_push_imm_is_5_bytes () =
  (* The BTRA push embedding of Section 5.1: push imm32. *)
  Alcotest.(check int) "push imm" 5 (Insn.size (Insn.Push (Imm (Abs 0x400000))))

let test_movabs_is_10_bytes () =
  Alcotest.(check int) "movabs" 10
    (Insn.size (Insn.Mov (Reg RAX, Imm (Abs 0x5555_5555_0000))))

let test_nop_width_is_size () =
  for w = 1 to 15 do
    Alcotest.(check int) "nop width" w (Insn.size (Insn.Nop w))
  done

let test_trap_ret_one_byte () =
  Alcotest.(check int) "trap" 1 (Insn.size Insn.Trap);
  Alcotest.(check int) "ret" 1 (Insn.size Insn.Ret)

let test_map_syms () =
  let resolve s off = match s with "f" -> 0x1000 + off | _ -> failwith s in
  let i = Insn.Push (Imm (Sym ("f", 8))) in
  Alcotest.(check bool) "unresolved before" false (Insn.is_resolved i);
  let r = Insn.map_syms resolve i in
  Alcotest.(check bool) "resolved after" true (Insn.is_resolved r);
  match r with
  | Insn.Push (Imm (Abs v)) -> Alcotest.(check int) "value" 0x1008 v
  | _ -> Alcotest.fail "unexpected shape"

let test_map_syms_mem_disp () =
  let resolve _ off = 0x2000 + off in
  let i = Insn.Mov (Reg RAX, Mem (Insn.mem_sym ~base:R11 "g" 16)) in
  match Insn.map_syms resolve i with
  | Insn.Mov (Reg RAX, Mem { base = Some R11; disp = Abs v; _ }) ->
      Alcotest.(check int) "disp" 0x2010 v
  | _ -> Alcotest.fail "unexpected shape"

let test_map_syms_target () =
  let resolve _ _ = 0x3000 in
  match Insn.map_syms resolve (Insn.Call (TSym ("f", 0))) with
  | Insn.Call (TAbs a) -> Alcotest.(check int) "target" 0x3000 a
  | _ -> Alcotest.fail "unexpected shape"

let test_size_stable_under_resolution () =
  (* Layout assigns addresses before resolution: sizes must not change. *)
  let resolve _ _ = 0x400000 in
  let samples =
    Insn.
      [
        Push (Imm (Sym ("bt", 3)));
        Mov (Reg RAX, Imm (Sym ("g", 0)));
        Call (TSym ("f", 0));
        Jcc (Eq, TSym ("l", 0));
        Vload (13, mem_sym "arr" 32);
      ]
  in
  List.iter
    (fun i ->
      Alcotest.(check int) (Insn.to_string i) (Insn.size i)
        (Insn.size (Insn.map_syms resolve i)))
    samples

let test_to_string () =
  Alcotest.(check string) "mov" "mov rax, rbx"
    (Insn.to_string (Insn.Mov (Reg RAX, Reg RBX)));
  Alcotest.(check string) "push sym" "push bt+8"
    (Insn.to_string (Insn.Push (Imm (Sym ("bt", 8)))))

let test_reg_index_roundtrip () =
  for i = 0 to 15 do
    let r = Insn.reg_of_index i in
    Alcotest.(check int) (Insn.reg_to_string r) i (Insn.reg_index r)
  done

let suite =
  [
    ( "insn",
      [
        Alcotest.test_case "sizes positive" `Quick test_sizes_positive;
        Alcotest.test_case "push imm 5 bytes" `Quick test_push_imm_is_5_bytes;
        Alcotest.test_case "movabs 10 bytes" `Quick test_movabs_is_10_bytes;
        Alcotest.test_case "nop width" `Quick test_nop_width_is_size;
        Alcotest.test_case "trap/ret 1 byte" `Quick test_trap_ret_one_byte;
        Alcotest.test_case "map_syms imm" `Quick test_map_syms;
        Alcotest.test_case "map_syms mem disp" `Quick test_map_syms_mem_disp;
        Alcotest.test_case "map_syms target" `Quick test_map_syms_target;
        Alcotest.test_case "size stable under resolution" `Quick
          test_size_stable_under_resolution;
        Alcotest.test_case "to_string" `Quick test_to_string;
        Alcotest.test_case "reg index roundtrip" `Quick test_reg_index_roundtrip;
      ] );
  ]
