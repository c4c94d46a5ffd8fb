type btra_setup = Push_setup | Push_naive | Sse_setup | Avx_setup | Avx512_setup

type callsite_plan = {
  pre_syms : (string * int) list;
  post_syms : (string * int) list;
  setup : btra_setup;
  array_global : string option;
  avx_pad : int;
  dummy_sym : (string * int) option;
  check_sym : (int * (string * int)) option;
}

type callee_kind =
  | Known of string
  | Unknown_indirect
  | Lib of string

type raw_func = {
  rname : string;
  rinsns : R2c_machine.Insn.t list;
  rbooby_trap : bool;
}

type t = {
  mdesc : Mdesc.t;
  reg_pool : fname:string -> R2c_machine.Insn.reg list;
  slot_perm : fname:string -> n:int -> int array;
  slot_pad_bytes : fname:string -> int;
  prolog_traps : fname:string -> int;
  post_offset_words : fname:string -> int;
  nops_before_call : fname:string -> site:int -> int list;
  callsite_btra : fname:string -> site:int -> callee:callee_kind -> callsite_plan option;
  btdp_indices : fname:string -> writes_frame:bool -> int list;
  btdp_array_sym : string option;
  func_alias : string -> string;
  oia : bool;
  func_order : string array -> int array;
  global_order : Ir.global array -> int array * int array;
  func_pad : fname:string -> int;
  raw_funcs : raw_func list;
  text_perm : R2c_machine.Perm.t;
  shadow_stack : bool;
  constructors : string list;
  extra_globals : Ir.global list;
  stack_bytes : int;
  text_slide : int;
  data_slide : int;
  heap_slide : int;
}

let identity_perm n = Array.init n (fun i -> i)

let default =
  {
    mdesc = Mdesc.x86_64;
    reg_pool = (fun ~fname:_ -> Mdesc.x86_64.Mdesc.callee_saved);
    slot_perm = (fun ~fname:_ ~n -> identity_perm n);
    slot_pad_bytes = (fun ~fname:_ -> 0);
    prolog_traps = (fun ~fname:_ -> 0);
    post_offset_words = (fun ~fname:_ -> 0);
    nops_before_call = (fun ~fname:_ ~site:_ -> []);
    callsite_btra = (fun ~fname:_ ~site:_ ~callee:_ -> None);
    btdp_indices = (fun ~fname:_ ~writes_frame:_ -> []);
    btdp_array_sym = None;
    func_alias = (fun s -> s);
    oia = false;
    func_order = (fun names -> identity_perm (Array.length names));
    global_order =
      (fun globals ->
        let n = Array.length globals in
        (identity_perm n, Array.make n 0));
    func_pad = (fun ~fname:_ -> 0);
    raw_funcs = [];
    text_perm = R2c_machine.Perm.rx;
    shadow_stack = false;
    constructors = [];
    extra_globals = [];
    stack_bytes = 256 * 1024;
    text_slide = 0;
    data_slide = 0;
    heap_slide = 0;
  }
