(* The paper's motivating attack, end to end: Address-Oblivious Code Reuse
   against a leakage-resilient, code-only diversification defense
   (Readactor model) — and the same attack against R2C.

     dune exec examples/aocr_attack.exe *)

module Defenses = R2c_defenses.Defenses
module Report = R2c_attacks.Report
module Vulnapp = R2c_workloads.Vulnapp
module Rng = R2c_util.Rng

let battle (d : Defenses.t) ~seed =
  Printf.printf "--- AOCR vs %s (%s) ---\n" d.Defenses.name d.Defenses.footnote;
  let reference, target = R2c_attacks.Suite.scenario d ~seed in
  let report = R2c_attacks.Aocr.run ~rng:(Rng.create (seed * 31)) ~reference ~target in
  print_endline ("aocr: " ^ Report.to_string report);
  (match report.Report.sensitive with
  | [] -> print_endline "no privileged call was reached."
  | log ->
      List.iter
        (fun (rdi, _) ->
          Printf.printf "privileged exec fired with argument 0x%x%s\n" rdi
            (if rdi = Vulnapp.marker then "  <-- ATTACKER-CONTROLLED" else ""))
        log);
  print_newline ()

let () =
  print_endline "== AOCR: the attack the paper is built around ==\n";
  print_endline
    "The attacker holds a reference copy of the binary, a stack-leak\n\
     primitive (Malicious Thread Blocking), and arbitrary read/write.\n\
     AOCR never needs code addresses: it profiles the stack, follows a heap\n\
     pointer to the data section, corrupts the privileged function's default\n\
     parameter and redirects a service-table entry - whole-function reuse.\n";
  (* Code-only diversification does not stop it (the paper's thesis). *)
  battle Defenses.readactor ~seed:14;
  battle Defenses.tasr ~seed:16;
  (* R2C: stack slot shuffling + BTRAs break step A's profiling, BTDPs mine
     the heap-pointer cluster of step B, global shuffling breaks step C. *)
  List.iter (fun seed -> battle Defenses.r2c ~seed) [ 1; 2; 3 ]
