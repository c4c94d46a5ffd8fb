module Cpu = R2c_machine.Cpu
module Insn = R2c_machine.Insn
module Mem = R2c_machine.Mem
module Icache = R2c_machine.Icache
module Loader = R2c_machine.Loader
module Fault = R2c_machine.Fault

(* The builtin tap: one span per intercepted call, newest first. *)
let tap spans (cpu : Cpu.t) builtin =
  let rdi = Cpu.reg_get cpu Insn.RDI in
  let rsi = Cpu.reg_get cpu Insn.RSI in
  let rax = Cpu.reg_get cpu Insn.RAX in
  (* The tap fires after the builtin's effect, so for a successful
     read_input the delivered bytes are already in guest memory at rdi
     and rax holds the count — read them back verbatim. *)
  let data =
    if builtin = "read_input" && rax > 0 then begin
      let b = Bytes.create rax in
      for i = 0 to rax - 1 do
        Bytes.set b i (Char.chr (Mem.read_u8 cpu.Cpu.mem (rdi + i) land 0xff))
      done;
      Some (Bytes.to_string b)
    end
    else None
  in
  spans :=
    {
      Trace.builtin;
      rdi;
      rsi;
      rax;
      data;
      cycles = cpu.Cpu.cycles;
      insns = cpu.Cpu.insns;
    }
    :: !spans

let capture ?(fuel = 200_000_000) ?(prepare = fun (_ : Cpu.t) -> ()) ~meta
    ~program ~inputs () =
  let meta = { meta with Trace.fuel } in
  let img = Trace.build meta program in
  let cpu = Loader.load ~profile:(Trace.cost_profile meta) img in
  List.iter (Cpu.push_input cpu) inputs;
  prepare cpu;
  let spans = ref [] in
  Cpu.set_builtin_tap cpu (Some (tap spans));
  match Cpu.run cpu ~fuel with
  | Cpu.Halted ->
      let output = Cpu.output cpu in
      let expect =
        {
          Trace.e_cycles = cpu.Cpu.cycles;
          e_insns = cpu.Cpu.insns;
          e_accesses = Icache.accesses cpu.Cpu.icache;
          e_misses = Icache.misses cpu.Cpu.icache;
          e_exit = cpu.Cpu.exit_code;
          e_output_len = String.length output;
          e_output_hash = Trace.output_hash output;
        }
      in
      Ok
        {
          Trace.meta;
          program;
          dict = [||];
          events = List.rev_map (fun s -> Trace.Span s) !spans;
          expect;
        }
  | Cpu.Fuel_exhausted -> Error "record: fuel exhausted before halt"
  | Cpu.Faulted f -> Error ("record: faulted: " ^ Fault.to_string f)
