(* r2c-attack: launch one code-reuse attack against the vulnerable server
   hardened by a chosen defense model, with a verbose trace. *)

open Cmdliner
module Defenses = R2c_defenses.Defenses
module Report = R2c_attacks.Report
module Suite = R2c_attacks.Suite

(* A positional or option value looked up by name, listing every name on a
   miss. *)
let lookup what find names name_of =
  let parse s =
    match find s with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "unknown %s %s (have: %s)" what s (String.concat ", " names))
  in
  Arg.conv' (parse, fun ppf x -> Format.pp_print_string ppf (name_of x))

let run_attack (name, run) (d : Defenses.t) seed =
  Printf.printf "target: vulnerable server under %s (seed %d) — %s\n" d.name seed d.footnote;
  let report = run d ~seed in
  Printf.printf "%s: %s\n" name (Report.to_string report);
  Printf.printf "victim sensitive-call log: %s\n"
    (String.concat ", "
       (List.map (fun (a, b) -> Printf.sprintf "(0x%x, 0x%x)" a b) report.Report.sensitive));
  if report.Report.success then 0 else 1

let () =
  let attack_names = List.map fst Suite.all in
  let defense_names =
    List.map (fun (d : Defenses.t) -> d.name) (Defenses.all @ Defenses.variants)
  in
  let attack =
    Arg.(
      required
      & pos 0 (some (lookup "attack" Suite.find attack_names fst)) None
      & info [] ~docv:"ATTACK"
          ~doc:("One of: " ^ String.concat ", " attack_names ^ " (case and '-' ignored)."))
  in
  let defense =
    Arg.(
      value
      & opt (lookup "defense" Defenses.find defense_names (fun (d : Defenses.t) -> d.name))
          Defenses.unprotected
      & info [ "d"; "defense" ] ~docv:"DEFENSE"
          ~doc:("Defense model, case ignored: " ^ String.concat ", " defense_names ^ "."))
  in
  let seed =
    Arg.(value & opt int 2 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Victim seed.")
  in
  let doc = "Run a code-reuse attack against the hardened vulnerable server." in
  let cmd =
    Cmd.v (Cmd.info "r2c-attack" ~version:"1.0.0" ~doc)
      Term.(const run_attack $ attack $ defense $ seed)
  in
  exit (Cmd.eval' cmd)
