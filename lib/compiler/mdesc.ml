open R2c_machine

type t = {
  mname : string;
  arg_regs : Insn.reg list;
  ret_reg : Insn.reg;
  scratch_reg : Insn.reg;
  indirect_reg : Insn.reg;
  check_reg : Insn.reg;
  vector_reg : int;
  frame_reg : Insn.reg;
  stack_reg : Insn.reg;
  callee_saved : Insn.reg list;
  word_bytes : int;
  frame_align : int;
  plt_entry_bytes : int;
  insn_size : Insn.t -> int;
}

let x86_64 =
  {
    mname = "x86_64";
    arg_regs = Insn.[ RDI; RSI; RDX; RCX; R8; R9 ];
    ret_reg = Insn.RAX;
    scratch_reg = Insn.RCX;
    indirect_reg = Insn.R10;
    check_reg = Insn.R11;
    vector_reg = 13;
    frame_reg = Insn.RBP;
    stack_reg = Insn.RSP;
    callee_saved = Insn.[ RBX; R12; R13; R14; R15 ];
    word_bytes = 8;
    frame_align = 16;
    plt_entry_bytes = 16;
    insn_size = Insn.size;
  }

let nregs t = List.length t.arg_regs

let fingerprint t =
  (* The encoder hook is a closure, so the fingerprint hashes the
     declarative fields plus the profile name; profiles with a custom
     [insn_size] must carry a distinct [mname]. *)
  let scalars =
    ( t.arg_regs,
      t.ret_reg,
      t.scratch_reg,
      t.indirect_reg,
      t.check_reg,
      t.vector_reg,
      t.frame_reg,
      t.stack_reg,
      t.callee_saved,
      t.word_bytes,
      t.frame_align,
      t.plt_entry_bytes )
  in
  Digest.to_hex (Digest.string (t.mname ^ "\x00" ^ Marshal.to_string scalars []))
