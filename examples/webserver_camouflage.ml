(* What the attacker actually sees: a side-by-side dump of the vulnerable
   server's leaked stack frame, baseline versus R2C. The baseline frame has
   one obvious return address and one obvious heap pointer; the R2C frame
   drowns them among booby-trapped return addresses and booby-trapped data
   pointers (the reflective camouflage of Figures 2 and 5). Also prints the
   serving-throughput cost of the camouflage.

     dune exec examples/webserver_camouflage.exe *)

module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
module Vulnapp = R2c_workloads.Vulnapp
module Webserver = R2c_workloads.Webserver
open R2c_machine

let dump_frame (d : Defenses.t) ~seed ~words =
  let img = Defenses.build_vulnapp d ~seed in
  let target = Oracle.attach img in
  (match Oracle.to_serving target with Ok () -> () | Error e -> failwith e);
  let base = Oracle.rsp target in
  let values = Oracle.leak_at target ~addr:base ~words in
  let mem = (Oracle.proc target).Process.cpu.Cpu.mem in
  let guards = Mem.guard_page_addrs mem in
  Printf.printf "--- leaked frame under %s (rsp = 0x%x) ---\n" d.Defenses.name base;
  Array.iteri
    (fun i v ->
      let annotation =
        match Addr.region_of v with
        | Addr.Text -> (
            match Image.func_of_addr img v with
            | Some f when f.Image.is_booby_trap -> "code pointer  <- BOOBY TRAP (BTRA)"
            | Some f -> Printf.sprintf "code pointer into %s" f.Image.fname
            | None -> "code pointer (PLT)")
        | Addr.Heap ->
            if List.mem (Addr.page_base v) guards then
              "heap pointer  <- GUARD PAGE (BTDP)"
            else "heap pointer (benign)"
        | Addr.Data -> "data-section pointer"
        | Addr.Stack -> "stack pointer"
        | Addr.Unmapped_region -> ""
      in
      if annotation <> "" then
        Printf.printf "  rsp+%-4d %016x  %s\n" (8 * i) v annotation)
    values;
  print_newline ()

let () =
  print_endline "== Reflective camouflage, as seen from the attacker's leak ==\n";
  dump_frame Defenses.unprotected ~seed:4 ~words:40;
  dump_frame Defenses.r2c ~seed:4 ~words:40;
  print_endline
    "In the baseline frame the lone text-range word IS the return address and\n\
     the lone heap word IS the session pointer. Under R2C, picking either\n\
     means gambling against the booby traps.\n";
  (* The price: serving throughput. *)
  let requests = 300 in
  let program = Webserver.server `Nginx ~requests in
  let cycles img =
    let p = Process.start img in
    let main_addr = Image.symbol img "main" in
    (match Process.run_until p ~break:[ main_addr ] with
    | `Hit -> ()
    | `Done _ -> failwith "no main");
    let t0 = Process.cycles p in
    match Process.run p with
    | Process.Exited 0 -> Process.cycles p -. t0
    | o -> failwith (Process.outcome_to_string o)
  in
  let base = cycles (R2c_compiler.Driver.compile program) in
  let r2c = cycles (R2c_core.Pipeline.compile ~seed:4 (R2c_core.Dconfig.full ()) program) in
  Printf.printf "nginx-model throughput: %.1f -> %.1f requests/Mcycle (%.1f%% drop)\n"
    (Webserver.throughput_of_cycles ~requests base)
    (Webserver.throughput_of_cycles ~requests r2c)
    ((1.0 -. (base /. r2c)) *. 100.0)
