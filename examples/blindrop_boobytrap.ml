(* The reactive component: Blind ROP against a worker-respawning non-PIE
   server. Against the unprotected build, stack reading plus a gadget sweep
   pops the privileged call after about a thousand probes. Against R2C, a
   probe lands in a booby trap within a few hundred, the monitor takes the
   service down, and the refused probes end the campaign (Section 4.1's
   deterrence).

     dune exec examples/blindrop_boobytrap.exe *)

module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
module Report = R2c_attacks.Report

let campaign (d : Defenses.t) ~seed =
  Printf.printf "--- Blind ROP vs %s ---\n" d.Defenses.name;
  let target = R2c_attacks.Suite.target d ~seed in
  let r = R2c_attacks.Blindrop.run ~target () in
  print_endline ("blind-rop: " ^ Report.to_string r);
  Printf.printf "worker crashes observed by the operator: %d\n" (Oracle.crashes target);
  Printf.printf "booby-trap/guard-page alarms raised: %d\n\n" (Oracle.detections target)

let () =
  print_endline "== Blind ROP vs booby traps ==\n";
  campaign Defenses.unprotected ~seed:20;
  campaign Defenses.r2c_nopie ~seed:20;
  print_endline
    "The unprotected server dies a thousand deaths and then hands over the\n\
     privileged call. The R2C server dies a handful of times - but one of\n\
     those deaths is a booby trap, and a booby trap is a fire alarm."
