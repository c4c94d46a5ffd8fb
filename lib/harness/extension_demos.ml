(* The Section 5.1 / 7.3 extension experiments (`experiments extensions`):

   - the race-window attack against the rejected naive decoy scheme and
     against R2C's race-free setup;
   - the RA-zeroing side channel against plain R2C (the admitted remaining
     attack surface), against the consistency-check hardening, and against
     load-time re-randomization;
   - the MVEE divergence detector over differently-seeded variants. *)

module Defenses = R2c_defenses.Defenses
module Mvee = R2c_defenses.Mvee
module Oracle = R2c_attacks.Oracle
module Reference = R2c_attacks.Reference
module Report = R2c_attacks.Report
module Vulnapp = R2c_workloads.Vulnapp

let attach (d : Defenses.t) ~seed =
  Oracle.attach ~break_sym:Vulnapp.break_symbol (Defenses.build_vulnapp d ~seed)

let battery name runs =
  let reports = List.map (fun f -> f ()) runs in
  let n = List.length reports in
  let s = List.length (List.filter (fun r -> r.Report.success) reports) in
  let d = List.length (List.filter (fun r -> r.Report.detected) reports) in
  Printf.printf "%-42s %d/%d succeeded, %d/%d detected\n%!" name s n d n

let run () =
  print_endline "\n== Race window (Section 5.1's design rationale) ==";
  battery "race vs naive decoys (kR^X-style)"
    (List.map
       (fun seed () -> R2c_attacks.Race.run ~target:(attach Defenses.r2c_naive ~seed))
       [ 1; 2; 3; 4 ]);
  battery "race vs R2C (pre-written RA)"
    (List.map
       (fun seed () -> R2c_attacks.Race.run ~target:(attach Defenses.r2c ~seed))
       [ 1; 2; 3; 4 ]);
  print_endline "\n== RA-zeroing side channel (Section 7.3) ==";
  battery "zeroing vs R2C (remaining surface)"
    (List.map
       (fun seed () -> R2c_attacks.Ra_zeroing.run ~target:(attach Defenses.r2c_nopie ~seed) ())
       [ 1; 2; 3; 4 ]);
  battery "zeroing vs R2C + consistency checks"
    (List.map
       (fun seed () ->
         R2c_attacks.Ra_zeroing.run ~target:(attach Defenses.r2c_checked_nopie ~seed) ())
       [ 1; 2; 3; 4; 5; 6 ]);
  battery "zeroing vs R2C + load-time re-randomization"
    (List.map
       (fun seed () ->
         let d = Defenses.r2c_rerand in
         let counter = ref 0 in
         let relink () =
           incr counter;
           Defenses.build_vulnapp d ~seed:(seed + 900 + !counter)
         in
         let target =
           Oracle.attach ~relink ~break_sym:Vulnapp.break_symbol
             (Defenses.build_vulnapp d ~seed)
         in
         R2c_attacks.Ra_zeroing.run ~target ())
       [ 1; 2; 3 ]);
  print_endline "\n== Backward-edge CFI (Section 8.2) ==";
  let cfi_scenario d seed =
    let reference =
      Reference.measure (Defenses.build_vulnapp d ~seed:(seed + 700))
    in
    (reference, attach d ~seed)
  in
  battery "ROP vs shadow stack"
    (List.map
       (fun seed () ->
         let reference, target = cfi_scenario Defenses.cfi seed in
         R2c_attacks.Rop.run ~reference ~target)
       [ 1; 2; 3 ]);
  battery "AOCR vs shadow stack (forward edge unchecked)"
    (List.map
       (fun seed () ->
         let reference, target = cfi_scenario Defenses.cfi seed in
         R2c_attacks.Aocr.run ~rng:(R2c_util.Rng.create (seed * 7)) ~reference ~target ())
       [ 1; 2; 3 ]);
  battery "AOCR vs R2C+CFI (orthogonal, composed)"
    (List.map
       (fun seed () ->
         let reference, target = cfi_scenario Defenses.r2c_cfi seed in
         R2c_attacks.Aocr.run ~rng:(R2c_util.Rng.create (seed * 7)) ~reference ~target ())
       [ 1; 2; 3 ]);
  print_endline "\n== Multi-variant execution (Section 7.3) ==";
  (* A layout-diversified-but-trapless build: the attacker owns variant 0
     via insider knowledge; the MVEE catches the exploit because variant 1
     reacts differently. *)
  let d = { Defenses.r2c with Defenses.cfg = R2c_core.Dconfig.layout_only } in
  let build ~seed = Defenses.build_vulnapp d ~seed in
  let benign = Mvee.run ~build ~seeds:[ 1; 2; 3 ] ~inputs:[ "ping"; "pong" ] in
  Printf.printf "benign traffic across 3 variants: %s\n" (Mvee.verdict_to_string benign);
  (* Craft the exploit against variant 1's exact layout. *)
  let v1 = build ~seed:1 in
  let reference = Reference.measure v1 in
  let target = Oracle.attach ~break_sym:Vulnapp.break_symbol v1 in
  (match (Oracle.to_break target, Oracle.resume_to_break target) with
  | `Break, `Break -> (
      let _, values =
        Oracle.leak_stack target ~words:((reference.Reference.ra_off / 8) + 8)
      in
      match R2c_attacks.Rop.craft ~reference ~values with
      | None -> print_endline "no gadget in reference"
      | Some payload ->
          let verdict = Mvee.run ~build ~seeds:[ 1; 2 ] ~inputs:[ ""; payload ] in
          Printf.printf "variant-1-tailored exploit under the MVEE: %s\n"
            (Mvee.verdict_to_string verdict))
  | _ -> print_endline "victim never reached serving state")
