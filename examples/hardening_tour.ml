(* The hardening tour: what each Section 7.3 / 8.2 extension buys, shown on
   one attack each.

     dune exec examples/hardening_tour.exe *)

module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
module Report = R2c_attacks.Report
module Suite = R2c_attacks.Suite

let show title (r : Report.t) =
  Printf.printf "%-46s %s%s\n" title
    (if r.Report.success then "ATTACKER WINS" else "defended")
    (if r.Report.detected then " + alarm raised" else "")

let () =
  print_endline "== What each hardening layer buys ==\n";
  print_endline "Attack: return-address zeroing (Section 7.3's side channel)\n";
  show "R2C, non-PIE worker pool"
    (R2c_attacks.Ra_zeroing.run ~target:(Suite.target Defenses.r2c_nopie ~seed:5));
  show "  + BTRA consistency checks"
    (R2c_attacks.Ra_zeroing.run ~target:(Suite.target Defenses.r2c_checked_nopie ~seed:5));
  (let d = Defenses.r2c_rerand in
   let counter = ref 0 in
   let relink () =
     incr counter;
     Defenses.build_vulnapp d ~seed:(600 + !counter)
   in
   let target = Oracle.attach ~relink (Defenses.build_vulnapp d ~seed:5) in
   show "  + load-time re-randomization" (R2c_attacks.Ra_zeroing.run ~target));
  print_endline "\nAttack: classic ROP chain\n";
  let rop d seed =
    let reference, target = Suite.scenario ~reference_seed:(seed + 800) d ~seed in
    R2c_attacks.Rop.run ~reference ~target
  in
  show "unprotected" (rop Defenses.unprotected 7);
  show "shadow-stack CFI alone" (rop Defenses.cfi 7);
  show "R2C alone" (rop Defenses.r2c 7);
  print_endline "\nAttack: AOCR (address-oblivious whole-function reuse)\n";
  let aocr d seed =
    let reference, target = Suite.scenario ~reference_seed:(seed + 800) d ~seed in
    R2c_attacks.Aocr.run ~rng:(R2c_util.Rng.create (seed * 13)) ~reference ~target
  in
  show "shadow-stack CFI alone (forward edge open)" (aocr Defenses.cfi 9);
  show "R2C alone" (aocr Defenses.r2c 9);
  show "R2C + CFI (Section 8.2: orthogonal)" (aocr Defenses.r2c_cfi 9);
  print_endline
    "\nEnforcement kills return corruption; camouflage kills the inference\n\
     steps enforcement cannot see. The paper's closing argument, executed."
