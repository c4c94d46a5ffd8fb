module Cpu = R2c_machine.Cpu
module Icache = R2c_machine.Icache
module Loader = R2c_machine.Loader
module Fault = R2c_machine.Fault

type run = {
  r_cycles : float;
  r_insns : int;
  r_accesses : int;
  r_misses : int;
  r_exit : int;
  r_output_len : int;
  r_output_hash : int64;
}

type verdict = { result : run; failures : string list }

let default_tolerance = 0.01

let execute ?image (t : Trace.t) =
  let img = match image with Some i -> i | None -> Trace.build t.meta t.program in
  let cpu = Loader.load ~profile:(Trace.cost_profile t.meta) img in
  List.iter (Cpu.push_input cpu) (Trace.feeds t);
  match Cpu.run cpu ~fuel:t.meta.fuel with
  | Cpu.Halted ->
      let output = Cpu.output cpu in
      Ok
        {
          r_cycles = cpu.Cpu.cycles;
          r_insns = cpu.Cpu.insns;
          r_accesses = Icache.accesses cpu.Cpu.icache;
          r_misses = Icache.misses cpu.Cpu.icache;
          r_exit = cpu.Cpu.exit_code;
          r_output_len = String.length output;
          r_output_hash = Trace.output_hash output;
        }
  | Cpu.Fuel_exhausted -> Error "replay: fuel exhausted before halt"
  | Cpu.Faulted f -> Error ("replay: faulted: " ^ Fault.to_string f)

let rel got want = Float.abs (got -. want) /. Float.max 1.0 (Float.abs want)

let check ?(tolerance = default_tolerance) ?image (t : Trace.t) =
  match execute ?image t with
  | Error e -> Error e
  | Ok r ->
      let e = t.expect in
      let fails = ref [] in
      let within what got want =
        let d = rel got want in
        if d > tolerance then
          fails :=
            Printf.sprintf "%s: got %.1f, recorded %.1f (%.2f%% > %.2f%%)" what
              got want (100. *. d) (100. *. tolerance)
            :: !fails
      in
      within "cycles" r.r_cycles e.Trace.e_cycles;
      within "insns" (float_of_int r.r_insns) (float_of_int e.Trace.e_insns);
      within "icache_accesses"
        (float_of_int r.r_accesses)
        (float_of_int e.Trace.e_accesses);
      within "icache_misses"
        (float_of_int r.r_misses)
        (float_of_int e.Trace.e_misses);
      if r.r_exit <> e.Trace.e_exit then
        fails :=
          Printf.sprintf "exit: got %d, recorded %d" r.r_exit e.Trace.e_exit
          :: !fails;
      if
        r.r_output_len <> e.Trace.e_output_len
        || r.r_output_hash <> e.Trace.e_output_hash
      then fails := "output: digest differs from recording" :: !fails;
      Ok { result = r; failures = List.rev !fails }
