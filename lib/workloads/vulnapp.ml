module B = Builder
module Insn = R2c_machine.Insn
module Opts = R2c_compiler.Opts

let marker = 0xdeadbeef

(* Requests served per run of [main]. *)
let requests = 8

let break_symbol = "__ra_process_request_0"

let program () =
  (* Privileged sink: passes its pointer argument straight to the execve
     analogue. *)
  let exec_cmd = B.func "exec_cmd" ~nparams:1 in
  B.call_void exec_cmd (Ir.Builtin "sensitive") [ B.param 0; Ir.Const 0xec ];
  B.ret exec_cmd (Some (Ir.Const 0));
  (* The AOCR default-parameter pattern: the argument comes from a global. *)
  let handler_exec = B.func "handler_exec" ~nparams:1 in
  let d = B.load handler_exec (Ir.Global "g_default_cmd") 0 in
  let r = B.call handler_exec (Ir.Direct "exec_cmd") [ d ] in
  B.ret handler_exec (Some r);
  let handler_echo = B.func "handler_echo" ~nparams:1 in
  B.call_void handler_echo (Ir.Builtin "print_int") [ B.param 0 ];
  B.ret handler_echo (Some (B.param 0));
  let handler_compute = B.func "handler_compute" ~nparams:1 in
  let x = B.param 0 in
  let x2 = B.binop handler_compute Ir.Mul x x in
  let r = B.binop handler_compute Ir.Add x2 (Ir.Const 7) in
  B.ret handler_compute (Some r);
  let handler_stats = B.func "handler_stats" ~nparams:1 in
  let c = B.load handler_stats (Ir.Global "g_req_count") 0 in
  let c2 = B.binop handler_stats Ir.Add c (Ir.Const 1) in
  B.store handler_stats (Ir.Global "g_req_count") 0 c2;
  B.ret handler_stats (Some c2);
  (* One request: the overflow, a heap session holding a data-section
     pointer, and an indirect dispatch through a stack-resident function
     pointer. *)
  let pr = B.func "process_request" ~nparams:1 in
  let i = B.param 0 in
  let s_buf = B.slot pr 64 in
  let s_fp = B.slot pr 8 in
  let s_session = B.slot pr 8 in
  (* Slot addresses are rematerialized at each use (as an optimizing
     compiler would): no address value stays live across the overflow. *)
  (* Call site 0 of process_request: THE vulnerability. 64-byte buffer,
     4096-byte limit. The buffer's first byte is initialised so an empty
     request is well-defined. *)
  B.store8 pr (B.slot_addr pr s_buf) 0 (Ir.Const 0);
  let n = B.call pr (Ir.Builtin "read_input") [ B.slot_addr pr s_buf; Ir.Const 4096 ] in
  let session = B.call pr (Ir.Builtin "malloc") [ Ir.Const 32 ] in
  B.store pr session 0 i;
  B.store pr session 8 (Ir.Global "g_motd");
  B.store pr session 16 n;
  B.store pr (B.slot_addr pr s_session) 0 session;
  (* Keep every session alive in a global ring (servers cache sessions). *)
  let ring_idx = B.binop pr Ir.Rem i (Ir.Const 8) in
  let ring_off = B.binop pr Ir.Mul ring_idx (Ir.Const 8) in
  let ring_addr = B.binop pr Ir.Add (Ir.Global "g_session_ring") ring_off in
  B.store pr ring_addr 0 session;
  (* Service dispatch through a frame-resident function pointer; entry 3
     (handler_exec) is never selected legitimately. *)
  let svc_idx = B.binop pr Ir.Rem i (Ir.Const 3) in
  let svc_off = B.binop pr Ir.Mul svc_idx (Ir.Const 8) in
  let svc_addr = B.binop pr Ir.Add (Ir.Global "g_service_table") svc_off in
  let fp = B.load pr svc_addr 0 in
  B.store pr (B.slot_addr pr s_fp) 0 fp;
  let x = B.load8 pr (B.slot_addr pr s_buf) 0 in
  let fp2 = B.load pr (B.slot_addr pr s_fp) 0 in
  let r = B.call pr (Ir.Indirect fp2) [ x ] in
  let session2 = B.load pr (B.slot_addr pr s_session) 0 in
  B.store pr session2 24 r;
  B.ret pr (Some r);
  (* The request loop. *)
  let main = B.func "main" ~nparams:0 in
  let s_i = B.slot main 8 in
  let i_addr = B.slot_addr main s_i in
  B.store main i_addr 0 (Ir.Const 0);
  let header = B.new_block main and body = B.new_block main and fin = B.new_block main in
  B.br main header;
  B.switch_to main header;
  let iv = B.load main i_addr 0 in
  let c = B.cmp main Ir.Lt iv (Ir.Const requests) in
  B.cond_br main c body fin;
  B.switch_to main body;
  let iv2 = B.load main i_addr 0 in
  B.call_void main (Ir.Direct "process_request") [ iv2 ];
  let iv3 = B.binop main Ir.Add iv2 (Ir.Const 1) in
  B.store main i_addr 0 iv3;
  B.br main header;
  B.switch_to main fin;
  let served = B.load main (Ir.Global "g_req_count") 0 in
  B.call_void main (Ir.Builtin "print_int") [ served ];
  B.ret main (Some (Ir.Const 0));
  let globals =
    [
      B.global "g_motd" ~size:24 [ Ir.Str "Welcome to vulnsrv\000" ];
      B.global "g_safe_cmd" ~size:8 [ Ir.Str "status\000" ];
      B.global "g_default_cmd" ~size:8 [ Ir.Sym_addr "g_safe_cmd" ];
      B.global "g_service_table" ~size:32
        [
          Ir.Sym_addr "handler_echo";
          Ir.Sym_addr "handler_compute";
          Ir.Sym_addr "handler_stats";
          Ir.Sym_addr "handler_exec";
        ];
      B.global "g_session_ring" ~size:64 [];
      B.global "g_req_count" ~size:8 [];
    ]
  in
  B.program ~main:"main"
    [
      B.finish exec_cmd;
      B.finish handler_exec;
      B.finish handler_echo;
      B.finish handler_compute;
      B.finish handler_stats;
      B.finish pr;
      B.finish main;
    ]
    globals

(* The libc analogue's gadget population: helper functions whose code
   happens to contain the classic sequences — exactly the situation on a
   real system, where libc maps into every process. *)
let runtime_stubs =
  let open Insn in
  [
    {
      Opts.rname = "__rt_invoke1";
      rinsns = [ Mov (Reg RAX, Reg RDI); Pop RDI; Ret ];
      rbooby_trap = false;
    };
    {
      Opts.rname = "__rt_invoke2";
      rinsns = [ Nop 3; Pop RSI; Pop RDI; Ret ];
      rbooby_trap = false;
    };
    {
      Opts.rname = "__rt_store";
      rinsns = [ Mov (Mem (mem ~base:RDI ()), Reg RSI); Ret ];
      rbooby_trap = false;
    };
    {
      Opts.rname = "__rt_fetch";
      rinsns = [ Mov (Reg RAX, Mem (mem ~base:RDI ())); Ret ];
      rbooby_trap = false;
    };
    {
      Opts.rname = "__rt_pivot";
      rinsns = [ Mov (Reg RSP, Reg RDI); Ret ];
      rbooby_trap = false;
    };
    { Opts.rname = "__rt_nop"; rinsns = [ Nop 1; Ret ]; rbooby_trap = false };
  ]

let build ?(seed = 1) cfg =
  R2c_core.Pipeline.compile ~extra_raw:runtime_stubs ~seed cfg (program ())
