(* Quickstart: write a small program against the public API, compile it
   twice — baseline and full R2C — and see that behaviour is identical
   while the binary is diversified.

     dune exec examples/quickstart.exe *)

module B = Builder
module Dconfig = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
open R2c_machine

(* A little program: compute the first 10 triangular numbers through a
   helper function and print their sum. *)
let program =
  let tri = B.func "triangle" ~nparams:1 in
  let n = B.param 0 in
  let n1 = B.binop tri Ir.Add n (Ir.Const 1) in
  let prod = B.binop tri Ir.Mul n n1 in
  let half = B.binop tri Ir.Div prod (Ir.Const 2) in
  B.ret tri (Some half);
  let main = B.func "main" ~nparams:0 in
  let acc = B.slot main 8 in
  B.store main (B.slot_addr main acc) 0 (Ir.Const 0);
  B.for_ main ~from:(Ir.Const 1) ~below:(Ir.Const 11) (fun i ->
      let t = B.call main (Ir.Direct "triangle") [ i ] in
      let cur = B.load main (B.slot_addr main acc) 0 in
      B.store main (B.slot_addr main acc) 0 (B.binop main Ir.Add cur t));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main acc) 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main" [ B.finish tri; B.finish main ] []

let run img =
  let p = Process.start img in
  match Process.run p with
  | Process.Exited 0 -> (Process.output p, Process.cycles p)
  | o -> failwith (Process.outcome_to_string o)

let () =
  print_endline "== R2C quickstart ==\n";
  (* 1. Baseline compile & run. *)
  let baseline = R2c_compiler.Driver.compile program in
  let base_out, base_cycles = run baseline in
  Printf.printf "baseline output: %s  (%.0f cycles)\n" (String.trim base_out) base_cycles;
  (* 2. Full R2C, two different seeds. *)
  let cfg = Dconfig.full () in
  List.iter
    (fun seed ->
      let img = Pipeline.compile ~seed cfg program in
      let out, cycles = run img in
      assert (out = base_out);
      Printf.printf
        "R2C seed %d: same output, %.0f cycles (%+.1f%%), main at 0x%x, %d booby traps\n"
        seed cycles
        ((cycles /. base_cycles -. 1.0) *. 100.0)
        (Image.symbol img "main")
        (Array.fold_left (fun n f -> if f.Image.is_booby_trap then n + 1 else n) 0 img.Image.funcs))
    [ 1; 2; 3 ];
  print_endline "\nSame behaviour, different binary every time — that is the point.";
  (* 3. Show a slice of the diversified call-site code. *)
  let img = Pipeline.compile ~seed:1 cfg program in
  let main_addr = Image.symbol img "main" in
  Printf.printf "\nfirst instructions of diversified main (0x%x):\n" main_addr;
  let rec dump addr n =
    if n > 0 then
      match Image.code_at img addr with
      | Some (insn, len) ->
          Printf.printf "  %x: %s\n" addr (Insn.to_string insn);
          dump (addr + len) (n - 1)
      | None -> ()
  in
  dump main_addr 12
