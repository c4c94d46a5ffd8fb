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
module Suite = R2c_attacks.Suite

(* One table per section, one row per battery run in order: [n] trials
   seeded 1..n, counted as trials, successes and detections. *)
let batteries key title specs =
  let open Results in
  let battery (name, n, attack) =
    let reports = List.init n (fun i -> attack (i + 1)) in
    let count p = Int (List.length (List.filter p reports)) in
    [ Str name; Int n; count (fun r -> r.Report.success); count (fun r -> r.Report.detected) ]
  in
  table key ~title
    [
      left "battery" "battery"; col "trials" "trials"; col "successes" "succeeded";
      col "detections" "detected";
    ]
    (List.map battery specs)

let run () =
  let zeroing d seed = R2c_attacks.Ra_zeroing.run ~target:(Suite.target d ~seed) in
  let rerand_zeroing seed =
    let d = Defenses.r2c_rerand in
    let counter = ref 0 in
    let relink () =
      incr counter;
      Defenses.build_vulnapp d ~seed:(seed + 900 + !counter)
    in
    R2c_attacks.Ra_zeroing.run ~target:(Oracle.attach ~relink (Defenses.build_vulnapp d ~seed))
  in
  let cfi_scenario d seed = Suite.scenario ~reference_seed:(seed + 700) d ~seed in
  let rop d seed =
    let reference, target = cfi_scenario d seed in
    R2c_attacks.Rop.run ~reference ~target
  in
  let aocr d seed =
    let reference, target = cfi_scenario d seed in
    R2c_attacks.Aocr.run ~rng:(R2c_util.Rng.create (seed * 7)) ~reference ~target
  in
  let race d seed = R2c_attacks.Race.run ~target:(Suite.target d ~seed) in
  let tables =
    List.map
      (fun (key, title, specs) -> batteries key title specs)
      [
        ( "race_window",
          "Race window (Section 5.1's design rationale)",
          [
            ("race vs naive decoys (kR^X-style)", 4, race Defenses.r2c_naive);
            ("race vs R2C (pre-written RA)", 4, race Defenses.r2c);
          ] );
        ( "ra_zeroing",
          "RA-zeroing side channel (Section 7.3)",
          [
            ("zeroing vs R2C (remaining surface)", 4, zeroing Defenses.r2c_nopie);
            ("zeroing vs R2C + consistency checks", 6, zeroing Defenses.r2c_checked_nopie);
            ("zeroing vs R2C + load-time re-randomization", 3, rerand_zeroing);
          ] );
        ( "cfi",
          "Backward-edge CFI (Section 8.2)",
          [
            ("ROP vs shadow stack", 3, rop Defenses.cfi);
            ("AOCR vs shadow stack (forward edge unchecked)", 3, aocr Defenses.cfi);
            ("AOCR vs R2C+CFI (orthogonal, composed)", 3, aocr Defenses.r2c_cfi);
          ] );
      ]
  in
  (* A layout-diversified-but-trapless build: the attacker owns variant 0
     via insider knowledge; the MVEE catches the exploit because variant 1
     reacts differently. *)
  let d = { Defenses.r2c with Defenses.cfg = R2c_core.Dconfig.layout_only } in
  let build ~seed = Defenses.build_vulnapp d ~seed in
  let benign = Mvee.run ~build ~seeds:[ 1; 2; 3 ] ~inputs:[ "ping"; "pong" ] in
  (* Craft the exploit against variant 1's exact layout. *)
  let v1 = build ~seed:1 in
  let reference = Reference.measure v1 in
  let target = Oracle.attach v1 in
  let exploit =
    match Oracle.to_serving target with
    | Ok () -> (
        let words = (reference.Reference.ra_off / 8) + 8 in
        let values = Oracle.leak_at target ~addr:(Oracle.rsp target) ~words in
        match R2c_attacks.Rop.craft ~reference ~values with
        | None -> "no gadget in reference"
        | Some payload ->
            Mvee.verdict_to_string (Mvee.run ~build ~seeds:[ 1; 2 ] ~inputs:[ ""; payload ]))
    | Error _ -> "victim never reached serving state"
  in
  tables
  @ Results.
      [
        Note "\n== Multi-variant execution (Section 7.3) ==";
        field "mvee_benign" ~label:"benign traffic across 3 variants"
          (Str (Mvee.verdict_to_string benign));
        field "mvee_exploit" ~label:"variant-1-tailored exploit under the MVEE" (Str exploit);
      ]
