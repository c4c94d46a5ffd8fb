(* Unwinder edge cases: walking from inside a prologue (before/while the
   frame is being set up) and frames whose RA slot holds a booby-trap
   address. *)

open R2c_machine
module Defenses = R2c_defenses.Defenses

let fib_image () = R2c_compiler.Driver.compile (Samples.fib_prog 10)

let break_at cpu addr =
  match Cpu.run_until cpu ~fuel:1_000_000 ~break:[ addr ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "breakpoint never reached"

let rsp cpu = cpu.Cpu.regs.(Insn.reg_index Insn.RSP)

let fib_row img =
  let entry = Image.symbol img "fib" in
  match
    Array.fold_left
      (fun acc (e, _, f, p) -> if e = entry then Some (f, p) else acc)
      None img.Image.unwind_funcs
  with
  | Some r -> r
  | None -> Alcotest.fail "no unwind row for fib"

(* At function entry the prologue has not run: rsp still points at the RA
   slot and the walk must recover the caller chain from there. *)
let test_unwind_at_entry () =
  let img = fib_image () in
  let cpu = Loader.load ~profile:Cost.epyc_rome img in
  break_at cpu (Image.symbol img "fib");
  let bt = Unwind.backtrace cpu.Cpu.mem img ~ra_slot:(rsp cpu) in
  Alcotest.(check int) "one frame" 1 (List.length bt);
  match Image.func_of_addr img (List.hd bt) with
  | Some f -> Alcotest.(check string) "returns into main" "main" f.Image.fname
  | None -> Alcotest.fail "return address outside every function"

(* Mid-prologue: step through fib's frame setup; once the CIE-row
   adjustment (frame + post words) has been applied to rsp, the RA slot is
   back at rsp + frame + 8*post and the walk must agree with the
   entry-time one. *)
let test_unwind_mid_prologue () =
  let img = fib_image () in
  let cpu = Loader.load ~profile:Cost.epyc_rome img in
  let entry = Image.symbol img "fib" in
  break_at cpu entry;
  let frame, post = fib_row img in
  Alcotest.(check bool) "fib allocates a frame" true (frame > 0);
  let rsp0 = rsp cpu in
  let reference = Unwind.backtrace cpu.Cpu.mem img ~ra_slot:rsp0 in
  let steps = ref 0 in
  while rsp cpu <> rsp0 - frame - (8 * post) && !steps < 20 do
    Cpu.step cpu;
    incr steps
  done;
  Alcotest.(check bool) "prologue completed" true (rsp cpu = rsp0 - frame - (8 * post));
  let bt =
    Unwind.backtrace cpu.Cpu.mem img ~ra_slot:(rsp cpu + frame + (8 * post))
  in
  Alcotest.(check (list int)) "same chain as at entry" reference bt

(* Booby-trap addresses are decoys, never legitimate return addresses: no
   booby-trap entry may appear in the FDE rows, and a frame whose RA slot
   holds one unwinds to nothing instead of fabricating frames. *)
let test_unwind_booby_trap_frame () =
  let img = Defenses.build_vulnapp Defenses.r2c ~seed:9 in
  let cpu = Loader.load ~profile:Cost.epyc_rome img in
  let traps =
    List.filter (fun (f : Image.func_info) -> f.is_booby_trap) (Array.to_list img.Image.funcs)
  in
  Alcotest.(check bool) "image has booby traps" true (traps <> []);
  List.iter
    (fun (f : Image.func_info) ->
      Alcotest.(check bool) "booby trap is not an unwind site" false
        (Hashtbl.mem (Image.sites img).unwind_sites f.entry))
    traps;
  let slot = Addr.stack_top - 256 in
  Mem.poke_u64 cpu.Cpu.mem slot (List.hd traps).Image.entry;
  Alcotest.(check (list int)) "no frames from a booby-trap RA" []
    (Unwind.backtrace cpu.Cpu.mem img ~ra_slot:slot)

(* An unmapped RA slot must end the walk, not raise. *)
let test_unwind_unmapped_slot () =
  let img = fib_image () in
  let cpu = Loader.load ~profile:Cost.epyc_rome img in
  Alcotest.(check (list int)) "unmapped slot" []
    (Unwind.backtrace cpu.Cpu.mem img ~ra_slot:(Addr.stack_top + 0x10_0000))

let suite =
  [
    ( "unwind-edge",
      [
        Alcotest.test_case "unwind at function entry" `Quick test_unwind_at_entry;
        Alcotest.test_case "unwind mid-prologue" `Quick test_unwind_mid_prologue;
        Alcotest.test_case "booby-trap frame" `Quick test_unwind_booby_trap_frame;
        Alcotest.test_case "unmapped slot" `Quick test_unwind_unmapped_slot;
      ] );
  ]
