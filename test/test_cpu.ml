open R2c_machine
module Opts = R2c_compiler.Opts
module Link = R2c_compiler.Link
module Asm = R2c_compiler.Asm

(* Assemble raw machine-code functions into a runnable image: _start calls
   "main", then halts with rax as exit code. *)
let image ?(opts = Opts.default) funcs =
  let emitted =
    List.map
      (fun (rname, rinsns) -> Asm.of_raw { Opts.rname; rinsns; rbooby_trap = false })
      funcs
  in
  Link.link ~opts ~main:"main" emitted []

let run_insns ?opts ?(strict_align = true) insns =
  let img = image ?opts [ ("main", insns) ] in
  let p = Process.start ~strict_align img in
  (Process.run p, p)

let check_exit name expected outcome =
  match outcome with
  | Process.Exited n -> Alcotest.(check int) name expected n
  | other -> Alcotest.failf "%s: unexpected outcome %s" name (Process.outcome_to_string other)

let test_arith () =
  let outcome, _ =
    run_insns
      Insn.
        [
          Mov (Reg RAX, Imm (Abs 10));
          Binop (Imul, RAX, Imm (Abs 7));
          Binop (Sub, RAX, Imm (Abs 4));
          Ret;
        ]
  in
  check_exit "10*7-4" 66 outcome

let test_div_rem () =
  let outcome, _ =
    run_insns
      Insn.
        [
          Mov (Reg RAX, Imm (Abs 47));
          Div (RAX, Imm (Abs 5));
          Mov (Reg RBX, Imm (Abs 47));
          Rem (RBX, Imm (Abs 5));
          Binop (Imul, RAX, Imm (Abs 10));
          Binop (Add, RAX, Reg RBX);
          Ret;
        ]
  in
  check_exit "47/5*10 + 47%5" 92 outcome

let test_div_by_zero_faults () =
  let outcome, _ =
    run_insns Insn.[ Mov (Reg RAX, Imm (Abs 1)); Mov (Reg RBX, Imm (Abs 0)); Div (RAX, Reg RBX); Ret ]
  in
  match outcome with
  | Process.Crashed (Fault.Division_by_zero _) -> ()
  | other -> Alcotest.failf "expected SIGFPE, got %s" (Process.outcome_to_string other)

let test_push_pop () =
  let outcome, _ =
    run_insns
      Insn.[ Mov (Reg RAX, Imm (Abs 123)); Push (Reg RAX); Mov (Reg RAX, Imm (Abs 0)); Pop RAX; Ret ]
  in
  check_exit "push/pop" 123 outcome

let test_call_ret () =
  let img =
    image
      [
        ( "main",
          Insn.
            [
              Binop (Sub, RSP, Imm (Abs 8));
              Mov (Reg RDI, Imm (Abs 20));
              Call (TSym ("double_it", 0));
              Binop (Add, RAX, Imm (Abs 2));
              Binop (Add, RSP, Imm (Abs 8));
              Ret;
            ] );
        ("double_it", Insn.[ Mov (Reg RAX, Reg RDI); Binop (Add, RAX, Reg RDI); Ret ]);
      ]
  in
  let p = Process.start img in
  check_exit "call/ret" 42 (Process.run p);
  (* Two calls executed: _start->main and main->double_it. *)
  Alcotest.(check int) "call count" 2 (Process.calls p)

let test_misaligned_call_faults () =
  (* At function entry rsp is 8 mod 16 (the pushed RA); calling again
     without a frame violates the convention. *)
  let outcome, _ = run_insns Insn.[ Call (TSym ("main", 0)) ] in
  match outcome with
  | Process.Crashed (Fault.Misaligned_stack _) -> ()
  | other -> Alcotest.failf "expected misaligned stack, got %s" (Process.outcome_to_string other)

let test_trap_is_detected () =
  let outcome, p = run_insns Insn.[ Trap ] in
  (match outcome with
  | Process.Crashed (Fault.Booby_trap _) -> ()
  | other -> Alcotest.failf "expected booby trap, got %s" (Process.outcome_to_string other));
  Alcotest.(check bool) "detected" true (p.Process.detections <> [])

let test_branches () =
  (* Sum 1..5 with a loop, spelled as three code fragments connected by
     jumps (raw functions have no local labels). *)
  let img =
    let open Insn in
    image
      [
        ("main", [ Mov (Reg RAX, Imm (Abs 0)); Mov (Reg RBX, Imm (Abs 1)); Jmp (TSym ("loop", 0)) ]);
        ( "loop",
          [
            Cmp (Reg RBX, Imm (Abs 5));
            Jcc (Gt, TSym ("fin", 0));
            Binop (Add, RAX, Reg RBX);
            Binop (Add, RBX, Imm (Abs 1));
            Jmp (TSym ("loop", 0));
          ] );
        ("fin", [ Ret ]);
      ]
  in
  let p = Process.start img in
  check_exit "sum 1..5" 15 (Process.run p)

let test_memory_ops () =
  let outcome, _ =
    run_insns
      Insn.
        [
          Binop (Sub, RSP, Imm (Abs 16));
          Mov (Reg RAX, Imm (Abs 77));
          Mov (Mem (mem ~base:RSP ~disp:8 ()), Reg RAX);
          Mov (Reg RBX, Mem (mem ~base:RSP ~disp:8 ()));
          Binop (Add, RSP, Imm (Abs 16));
          Mov (Reg RAX, Reg RBX);
          Ret;
        ]
  in
  check_exit "store/load" 77 outcome

let test_lea_indexing () =
  let outcome, _ =
    run_insns
      Insn.
        [
          Mov (Reg RBX, Imm (Abs 100));
          Mov (Reg RCX, Imm (Abs 5));
          Lea (RAX, { base = Some RBX; index = Some (RCX, S8); disp = Abs 4 });
          Ret;
        ]
  in
  check_exit "100+5*8+4" 144 outcome

let test_vector_roundtrip () =
  let outcome, _ =
    run_insns
      Insn.
        [
          Binop (Sub, RSP, Imm (Abs 64));
          Mov (Reg RAX, Imm (Abs 11));
          Mov (Mem (mem ~base:RSP ()), Reg RAX);
          Mov (Reg RAX, Imm (Abs 22));
          Mov (Mem (mem ~base:RSP ~disp:8 ()), Reg RAX);
          Mov (Reg RAX, Imm (Abs 33));
          Mov (Mem (mem ~base:RSP ~disp:16 ()), Reg RAX);
          Mov (Reg RAX, Imm (Abs 44));
          Mov (Mem (mem ~base:RSP ~disp:24 ()), Reg RAX);
          Vload (3, mem ~base:RSP ());
          Vstore (mem ~base:RSP ~disp:32 (), 3);
          Mov (Reg RAX, Mem (mem ~base:RSP ~disp:56 ()));
          Binop (Add, RSP, Imm (Abs 64));
          Ret;
        ]
  in
  check_exit "ymm copies 4 words" 44 outcome

let test_builtin_malloc_and_print () =
  let outcome, p =
    run_insns
      Insn.
        [
          Binop (Sub, RSP, Imm (Abs 8));
          Mov (Reg RDI, Imm (Abs 64));
          Call (TSym ("malloc", 0));
          Mov (Reg RBX, Reg RAX);
          Mov (Reg RAX, Imm (Abs 9));
          Mov (Mem (mem ~base:RBX ()), Reg RAX);
          Mov (Reg RDI, Mem (mem ~base:RBX ()));
          Call (TSym ("print_int", 0));
          Mov (Reg RAX, Imm (Abs 0));
          Binop (Add, RSP, Imm (Abs 8));
          Ret;
        ]
  in
  check_exit "malloc+print" 0 outcome;
  Alcotest.(check string) "output" "9\n" (Process.output p)

let test_ret2libc_style_return () =
  (* Returning into a builtin entry must execute it — the ret2libc path the
     ROP attack uses: push a fake RA (exit's continuation is irrelevant
     because exit halts). *)
  let img = image [ ("main", Insn.[ Mov (Reg RDI, Imm (Abs 7)); Push (Imm (Sym ("exit", 0))); Ret ]) ] in
  let p = Process.start img in
  check_exit "ret into exit(7)" 7 (Process.run p)

let test_exec_of_stack_faults () =
  (* Jump to the stack: DEP/W^X blocks it. *)
  let outcome, _ = run_insns Insn.[ Jmp_ind (Reg RSP) ] in
  match outcome with
  | Process.Crashed (Fault.Segv { access = Fault.Exec; _ }) -> ()
  | other -> Alcotest.failf "expected exec fault, got %s" (Process.outcome_to_string other)

let test_xom_blocks_text_read () =
  let opts = { Opts.default with text_perm = Perm.xo } in
  let outcome, _ =
    run_insns ~opts
      Insn.[ Mov (Reg RAX, Imm (Abs Addr.text_base)); Mov (Reg RAX, Mem (mem ~base:RAX ())); Ret ]
  in
  match outcome with
  | Process.Crashed (Fault.Segv { access = Fault.Read; _ }) -> ()
  | other -> Alcotest.failf "expected read fault, got %s" (Process.outcome_to_string other)

let test_rx_text_read_succeeds () =
  (* Legacy RX text is readable — the JIT-ROP precondition. *)
  let outcome, _ =
    run_insns
      Insn.
        [
          Mov (Reg RAX, Imm (Abs Addr.text_base));
          Mov (Reg RAX, Mem (mem ~base:RAX ()));
          Mov (Reg RAX, Imm (Abs 0));
          Ret;
        ]
  in
  check_exit "read rx text" 0 outcome

let test_btra_hand_sequence () =
  (* Hand-written Figure 3 sequence: 2 pre-BTRAs, RA, 1 post-BTRA, with the
     rsp repositioning; the callee skips the post word. The call must land
     and return correctly, and the booby-trapped words must be on the
     stack afterwards. *)
  let img =
    image
      [
        ( "main",
          Insn.
            [
              Binop (Sub, RSP, Imm (Abs 8));
              (* align: calls happen at rsp = 0 mod 16 *)
              Push (Imm (Sym ("bt", 0)));
              Push (Imm (Sym ("bt", 0)));
              Push (Imm (Sym ("main", 0)));
              (* placeholder RA value; the call overwrites it *)
              Push (Imm (Sym ("bt", 0)));
              Binop (Add, RSP, Imm (Abs 16));
              Call (TSym ("callee", 0));
              Binop (Add, RSP, Imm (Abs 16));
              Binop (Add, RSP, Imm (Abs 8));
              Ret;
            ] );
        ( "callee",
          Insn.
            [
              Binop (Sub, RSP, Imm (Abs 8));
              Mov (Reg RAX, Imm (Abs 55));
              Binop (Add, RSP, Imm (Abs 8));
              Ret;
            ] );
        ("bt", Insn.[ Trap ]);
      ]
  in
  let p = Process.start img in
  check_exit "btra sequence" 55 (Process.run p)

let test_returning_to_btra_trips_trap () =
  (* If an "attacker" redirects the return to the booby trap value, the trap
     fires. *)
  let img =
    image
      [
        ("main", Insn.[ Push (Imm (Sym ("bt", 0))); Ret ]);
        ("bt", Insn.[ Nop 1; Trap ]);
      ]
  in
  let p = Process.start img in
  match Process.run p with
  | Process.Crashed (Fault.Booby_trap _) ->
      Alcotest.(check bool) "detected" true (p.Process.detections <> [])
  | other -> Alcotest.failf "expected booby trap, got %s" (Process.outcome_to_string other)

let test_cycle_accounting () =
  let outcome, p = run_insns Insn.[ Mov (Reg RAX, Imm (Abs 0)); Ret ] in
  check_exit "ok" 0 outcome;
  Alcotest.(check bool) "cycles positive" true (Process.cycles p > 0.0);
  Alcotest.(check bool) "insns counted" true (Process.insns p >= 4)

let test_restart_preserves_layout_and_detections () =
  let img = image [ ("main", Insn.[ Trap ]) ] in
  let p = Process.start img in
  (match Process.run p with
  | Process.Crashed (Fault.Booby_trap { addr }) -> (
      Process.restart p;
      match Process.run p with
      | Process.Crashed (Fault.Booby_trap { addr = addr2 }) ->
          Alcotest.(check int) "same layout after restart" addr addr2
      | other -> Alcotest.failf "unexpected %s" (Process.outcome_to_string other))
  | other -> Alcotest.failf "unexpected %s" (Process.outcome_to_string other));
  Alcotest.(check int) "two detections accumulated" 2
    (List.length p.Process.detections);
  Alcotest.(check int) "restart count" 1 p.Process.restarts

let test_fuel_exhaustion () =
  let img = image [ ("main", Insn.[ Jmp (TSym ("main", 0)) ]) ] in
  let p = Process.start ~fuel:1000 img in
  match Process.run p with
  | Process.Timeout -> ()
  | other -> Alcotest.failf "expected timeout, got %s" (Process.outcome_to_string other)

let test_read_input_overflow_reaches_memory () =
  (* read_input writes attacker bytes through checked writes. *)
  let img =
    image
      [
        ( "main",
          Insn.
            [
              Binop (Sub, RSP, Imm (Abs 24));
              Mov (Reg RDI, Reg RSP);
              Mov (Reg RSI, Imm (Abs 16));
              Call (TSym ("read_input", 0));
              Mov (Reg RBX, Reg RAX);
              Mov8 (Reg RAX, Mem (mem ~base:RSP ()));
              Binop (Add, RSP, Imm (Abs 24));
              Ret;
            ] );
      ]
  in
  let p = Process.start img in
  Cpu.push_input p.Process.cpu "A";
  check_exit "first byte" (Char.code 'A') (Process.run p)

let test_fault_detection_classes () =
  (* Monitoring counts tripwire faults as detections; plain crashes (and
     injected chaos faults, indistinguishable from organic failure) are
     not. Every constructor is pinned so a new fault kind must choose. *)
  let detections =
    Fault.
      [
        Guard_page { addr = 0x5000; access = Read };
        Booby_trap { addr = 0x1010 };
        Cfi_violation { rip = 0x1000; expected = 1; got = 2 };
      ]
  in
  let plain_crashes =
    Fault.
      [
        Segv { addr = 0xdead; access = Write };
        Misaligned_stack { rip = 0x1000; rsp = 0x7fff_0004 };
        Invalid_opcode { addr = 0x42 };
        Division_by_zero { rip = 0x1000 };
        Injected { rip = 0x1000; kind = "bitflip" };
      ]
  in
  List.iter
    (fun f -> Alcotest.(check bool) (Fault.to_string f) true (Fault.is_detection f))
    detections;
  List.iter
    (fun f -> Alcotest.(check bool) (Fault.to_string f) false (Fault.is_detection f))
    plain_crashes

let test_restart_refills_fuel () =
  (* Fuel is a per-lifetime budget; a respawned worker gets a full one.
     (Regression: restart used to leave the spent fuel_left in place, so a
     long-lived pool slowly starved its own children.) *)
  let img = image [ ("main", Insn.[ Mov (Reg RAX, Imm (Abs 0)); Ret ]) ] in
  let p = Process.start ~fuel:5000 img in
  check_exit "first life" 0 (Process.run p);
  let spent = 5000 - p.Process.fuel_left in
  Alcotest.(check bool) "run consumed fuel" true (spent > 0);
  Process.restart p;
  Alcotest.(check int) "full budget after restart" 5000 p.Process.fuel_left;
  check_exit "second life" 0 (Process.run p)

let test_crash_accounting_across_restarts () =
  (* Crash and detection counters are monitoring state: they survive
     restarts, unlike CPU/memory/output. *)
  let img = image [ ("main", Insn.[ Trap ]) ] in
  let p = Process.start img in
  for _ = 1 to 3 do
    (match Process.run p with
    | Process.Crashed (Fault.Booby_trap _) -> ()
    | other -> Alcotest.failf "expected trap, got %s" (Process.outcome_to_string other));
    Process.restart p
  done;
  Alcotest.(check int) "crashes accumulated" 3 p.Process.crashes;
  Alcotest.(check int) "detections accumulated" 3 (List.length p.Process.detections);
  Alcotest.(check int) "restarts counted" 3 p.Process.restarts;
  Alcotest.(check bool) "detected flag" true (p.Process.detections <> [])

let test_run_until_many_breakpoints () =
  (* Regression for the breakpoint-set representation: run_until now
     probes a hash set instead of List.mem. With 64 breakpoints, the stop
     sequence must match a list-based stepping loop exactly. *)
  let insns =
    List.init 140 (fun i -> Insn.Mov (Insn.Reg Insn.RAX, Insn.Imm (Insn.Abs i)))
    @ [ Insn.Ret ]
  in
  let img = image [ ("main", insns) ] in
  let main_entry = Image.symbol img "main" in
  let main_fn =
    match Image.func_of_addr img main_entry with
    | Some f -> f
    | None -> Alcotest.fail "main not found"
  in
  let in_main a = a >= main_fn.Image.entry && a < main_fn.Image.entry + main_fn.Image.code_len in
  let main_addrs =
    let l = ref [] in
    Image.iter_insns img (fun a _ _ -> if in_main a then l := a :: !l);
    List.rev !l
  in
  (* Every other instruction of main, capped at 64 breakpoints. *)
  let break =
    List.filteri (fun i _ -> i mod 2 = 1) main_addrs |> List.filteri (fun i _ -> i < 64)
  in
  Alcotest.(check int) "64 breakpoints" 64 (List.length break);
  let load () = Loader.load ~strict_align:true ~profile:Cost.epyc_rome img in
  let list_run_until cpu ~fuel =
    (* The historical list-based advance: same check order as run_until. *)
    let rec go budget =
      if cpu.Cpu.halted then Error Cpu.Halted
      else if budget <= 0 then Error Cpu.Fuel_exhausted
      else if List.mem cpu.Cpu.rip break then Ok ()
      else begin
        Cpu.step cpu;
        go (budget - 1)
      end
    in
    try go fuel with Fault.Fault f -> Error (Cpu.Faulted f)
  in
  let stops advance cpu =
    let acc = ref [] in
    let rec go () =
      match advance cpu with
      | Ok () ->
          acc := cpu.Cpu.rip :: !acc;
          Cpu.step cpu;
          go ()
      | Error r -> (List.rev !acc, r, cpu.Cpu.insns, Cpu.reg_get cpu Insn.RAX)
    in
    go ()
  in
  let fast = stops (fun c -> Cpu.run_until c ~fuel:10_000 ~break) (load ()) in
  let slow = stops (fun c -> list_run_until c ~fuel:10_000) (load ()) in
  let s_fast, r_fast, i_fast, rax_fast = fast in
  let s_slow, r_slow, i_slow, rax_slow = slow in
  Alcotest.(check (list int)) "stop sequence" s_slow s_fast;
  Alcotest.(check int) "64 stops hit" 64 (List.length s_fast);
  Alcotest.(check bool) "both halted" true (r_fast = Cpu.Halted && r_slow = Cpu.Halted);
  Alcotest.(check int) "insns" i_slow i_fast;
  Alcotest.(check int) "final rax" rax_slow rax_fast

(* r2cc's --machine and a replay header name a cost profile the same way. *)
let test_machine_names () =
  let name = function Ok (p : Cost.profile) -> p.Cost.name | Error e -> e in
  List.iter
    (fun (p : Cost.profile) ->
      let upper = String.uppercase_ascii p.name in
      Alcotest.(check string) upper p.name (name (Cost.of_name upper)))
    Cost.all_machines;
  List.iter
    (fun (short, (p : Cost.profile)) ->
      Alcotest.(check string) short p.name (name (Cost.of_name short)))
    (List.combine [ "i9"; "EPYC"; "tr"; "xeon" ] Cost.all_machines);
  Alcotest.(check bool) "unknown" true (Result.is_error (Cost.of_name "PDP-11"))

let suite =
  [
    ( "cpu",
      [
        Alcotest.test_case "arith" `Quick test_arith;
        Alcotest.test_case "div/rem" `Quick test_div_rem;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
        Alcotest.test_case "push/pop" `Quick test_push_pop;
        Alcotest.test_case "call/ret + call count" `Quick test_call_ret;
        Alcotest.test_case "misaligned call faults" `Quick test_misaligned_call_faults;
        Alcotest.test_case "trap detected" `Quick test_trap_is_detected;
        Alcotest.test_case "branches/loop" `Quick test_branches;
        Alcotest.test_case "memory ops" `Quick test_memory_ops;
        Alcotest.test_case "lea indexing" `Quick test_lea_indexing;
        Alcotest.test_case "vector roundtrip" `Quick test_vector_roundtrip;
        Alcotest.test_case "builtins malloc/print" `Quick test_builtin_malloc_and_print;
        Alcotest.test_case "ret2libc return" `Quick test_ret2libc_style_return;
        Alcotest.test_case "exec of stack faults" `Quick test_exec_of_stack_faults;
        Alcotest.test_case "xom blocks text read" `Quick test_xom_blocks_text_read;
        Alcotest.test_case "rx text readable" `Quick test_rx_text_read_succeeds;
        Alcotest.test_case "BTRA hand sequence" `Quick test_btra_hand_sequence;
        Alcotest.test_case "return to BTRA traps" `Quick test_returning_to_btra_trips_trap;
        Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
        Alcotest.test_case "restart semantics" `Quick test_restart_preserves_layout_and_detections;
        Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
        Alcotest.test_case "read_input" `Quick test_read_input_overflow_reaches_memory;
        Alcotest.test_case "fault detection classes" `Quick test_fault_detection_classes;
        Alcotest.test_case "restart refills fuel" `Quick test_restart_refills_fuel;
        Alcotest.test_case "crash accounting across restarts" `Quick
          test_crash_accounting_across_restarts;
        Alcotest.test_case "run_until with 64 breakpoints" `Quick
          test_run_until_many_breakpoints;
        Alcotest.test_case "machine names" `Quick test_machine_names;
      ] );
  ]
