type frame_meta = {
  frame_size : int;
  post_words : int;
  ra_sites : (string * int) list;
  check_sites : string list;
}

type emitted = {
  ename : string;
  insns : R2c_machine.Insn.t array;
  esizes : int array;
  local_syms : (string * int) list;
  ebooby_trap : bool;
  eframe : frame_meta option;
}

let sizes_of ?(size = R2c_machine.Insn.size) insns = Array.map size insns

let of_raw ?size (r : Opts.raw_func) =
  let insns = Array.of_list r.rinsns in
  {
    ename = r.rname;
    insns;
    esizes = sizes_of ?size insns;
    local_syms = [];
    ebooby_trap = r.rbooby_trap;
    eframe = None;
  }
