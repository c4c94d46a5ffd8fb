module Mem = R2c_machine.Mem
module Heap = R2c_machine.Heap
module Addr = R2c_machine.Addr

type result = {
  output : string;
  exit_code : int;
  sensitive : (int * int) list;
  steps : int;
}

type error =
  | Fuel_exhausted
  | Runtime_error of string

let error_to_string = function
  | Fuel_exhausted -> "fuel exhausted"
  | Runtime_error m -> "runtime error: " ^ m

exception Error of error
exception Program_exit of int

let fail fmt = Printf.ksprintf (fun m -> raise (Error (Runtime_error m))) fmt

type state = {
  program : Ir.program;
  mem : Mem.t;
  heap : Heap.t;
  global_addr : (string, int) Hashtbl.t;
  func_addr : (string, int) Hashtbl.t;
  addr_func : (int, Ir.func) Hashtbl.t;
  addr_builtin : (int, string) Hashtbl.t;
  builtin_addr : (string, int) Hashtbl.t;
  out : Buffer.t;
  input : string Queue.t;
  mutable sensitive : (int * int) list;
  mutable sp : int;  (* bump pointer for stack slots, grows down *)
  mutable fuel : int;
  mutable steps : int;
  mutable depth : int;  (* active call depth, for the backtrace builtin *)
}

let layout (p : Ir.program) =
  let mem = Mem.create () in
  let global_addr = Hashtbl.create 64 in
  let func_addr = Hashtbl.create 64 in
  let addr_func = Hashtbl.create 64 in
  let addr_builtin = Hashtbl.create 16 in
  let builtin_addr = Hashtbl.create 16 in
  (* Globals: packed sequentially in the data region. *)
  let data_len =
    List.fold_left
      (fun off (g : Ir.global) ->
        Hashtbl.replace global_addr g.gname (Addr.data_base + off);
        off + Addr.align_up g.gsize ~align:16)
      0 p.globals
  in
  Mem.map mem Addr.data_base
    (Addr.align_up (max data_len Addr.page_size) ~align:Addr.page_size)
    R2c_machine.Perm.rw;
  (* Function and builtin "addresses": distinct values in the text range so
     that function pointers stored in memory round-trip. *)
  List.iteri
    (fun i name ->
      let a = Addr.text_base + (16 * i) in
      Hashtbl.replace addr_builtin a name;
      Hashtbl.replace builtin_addr name a)
    R2c_machine.Image.builtin_names;
  List.iteri
    (fun i (f : Ir.func) ->
      let a = Addr.text_base + 4096 + (64 * i) in
      Hashtbl.replace func_addr f.name a;
      Hashtbl.replace addr_func a f)
    p.funcs;
  (* Stack for slots. *)
  let stack_len = 4 * 1024 * 1024 in
  Mem.map mem (Addr.stack_top - stack_len) stack_len R2c_machine.Perm.rw;
  let st =
    {
      program = p;
      mem;
      heap = Heap.create mem ~base:Addr.heap_base;
      global_addr;
      func_addr;
      addr_func;
      addr_builtin;
      builtin_addr;
      out = Buffer.create 256;
      input = Queue.create ();
      sensitive = [];
      sp = Addr.stack_top - 64;
      fuel = 0;
      steps = 0;
      depth = 0;
    }
  in
  (* Apply global initialisers (symbols now resolvable). *)
  let sym_addr s =
    match Hashtbl.find_opt global_addr s with
    | Some a -> a
    | None -> (
        match Hashtbl.find_opt func_addr s with
        | Some a -> a
        | None -> fail "unknown symbol %s in initialiser" s)
  in
  List.iter
    (fun (g : Ir.global) ->
      let base = Hashtbl.find global_addr g.gname in
      let _ =
        List.fold_left
          (fun off item ->
            match item with
            | Ir.Word v ->
                Mem.write_u64 mem (base + off) v;
                off + 8
            | Ir.Sym_addr s ->
                Mem.write_u64 mem (base + off) (sym_addr s);
                off + 8
            | Ir.Sym_addr_off (s, o) ->
                Mem.write_u64 mem (base + off) (sym_addr s + o);
                off + 8
            | Ir.Str s ->
                String.iteri (fun i c -> Mem.write_u8 mem (base + off + i) (Char.code c)) s;
                off + String.length s)
          0 g.ginit
      in
      ())
    p.globals;
  st

let read_cstring st addr =
  let buf = Buffer.create 16 in
  let rec go a =
    if Buffer.length buf > 4096 then Buffer.contents buf
    else
      let c = Mem.read_u8 st.mem a in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (a + 1)
      end
  in
  go addr

let builtin st name args =
  let arg i = try List.nth args i with Failure _ -> 0 in
  match name with
  | "malloc" -> Heap.malloc st.heap (arg 0)
  | "malloc_pages" -> Heap.malloc_pages st.heap (arg 0)
  | "free" ->
      Heap.free st.heap (arg 0);
      0
  | "mprotect_noread" -> 0 (* the reference semantics has no permissions *)
  | "print_int" ->
      Buffer.add_string st.out (string_of_int (arg 0));
      Buffer.add_char st.out '\n';
      0
  | "print_str" ->
      Buffer.add_string st.out (read_cstring st (arg 0));
      Buffer.add_char st.out '\n';
      0
  | "read_input" ->
      if Queue.is_empty st.input then 0
      else begin
        let s = Queue.pop st.input in
        let n = min (String.length s) (arg 1) in
        for i = 0 to n - 1 do
          Mem.write_u8 st.mem (arg 0 + i) (Char.code s.[i])
        done;
        n
      end
  | "sensitive" ->
      st.sensitive <- (arg 0, arg 1) :: st.sensitive;
      0
  | "backtrace" -> st.depth
  | "exit" -> raise (Program_exit (arg 0))
  | other -> fail "unknown builtin %s" other

let eval_binop (op : Ir.binop) a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then fail "division by zero" else a / b
  | Rem -> if b = 0 then fail "division by zero" else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)
  | Sar -> a asr (b land 63)

let eval_cmp (c : Ir.cmp) a b =
  let r =
    match c with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if r then 1 else 0

(* One call frame: evaluates a function body; returns the result value. *)
let rec exec_func st (f : Ir.func) args =
  st.depth <- st.depth + 1;
  let env = Array.make (max f.nvars 1) 0 in
  List.iteri (fun i v -> if i < f.nparams then env.(i) <- v) args;
  (* Allocate slots downward; release on exit. *)
  let saved_sp = st.sp in
  let slot_addrs =
    Array.map
      (fun size ->
        st.sp <- st.sp - Addr.align_up size ~align:8;
        st.sp)
      f.slots
  in
  if st.sp < Addr.stack_top - (4 * 1024 * 1024) + 4096 then fail "stack overflow";
  let block_tbl = Hashtbl.create 8 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace block_tbl b.lbl b) f.blocks;
  let eval = function
    | Ir.Const n -> n
    | Ir.Var v -> env.(v)
    | Ir.Global g -> (
        match Hashtbl.find_opt st.global_addr g with
        | Some a -> a
        | None -> fail "unknown global %s" g)
    | Ir.Func fn -> (
        match Hashtbl.find_opt st.func_addr fn with
        | Some a -> a
        | None -> (
            match Hashtbl.find_opt st.builtin_addr fn with
            | Some a -> a
            | None -> fail "unknown function %s" fn))
  in
  let call_value callee args =
    match callee with
    | Ir.Direct name -> (
        match Ir.find_func st.program name with
        | Some g -> exec_func st g args
        | None -> fail "call to unknown function %s" name)
    | Ir.Builtin name -> builtin st name args
    | Ir.Indirect op -> (
        let a = eval op in
        match Hashtbl.find_opt st.addr_func a with
        | Some g -> exec_func st g args
        | None -> (
            match Hashtbl.find_opt st.addr_builtin a with
            | Some name -> builtin st name args
            | None -> fail "indirect call to non-function 0x%x" a))
  in
  let step_instr = function
    | Ir.Mov (v, op) -> env.(v) <- eval op
    | Ir.Binop (v, op, a, b) -> env.(v) <- eval_binop op (eval a) (eval b)
    | Ir.Cmp (v, c, a, b) -> env.(v) <- eval_cmp c (eval a) (eval b)
    | Ir.Load (v, base, off) -> env.(v) <- Mem.read_u64 st.mem (eval base + off)
    | Ir.Load8 (v, base, off) -> env.(v) <- Mem.read_u8 st.mem (eval base + off)
    | Ir.Store (base, off, value) -> Mem.write_u64 st.mem (eval base + off) (eval value)
    | Ir.Store8 (base, off, value) -> Mem.write_u8 st.mem (eval base + off) (eval value)
    | Ir.Slot_addr (v, i) -> env.(v) <- slot_addrs.(i)
    | Ir.Call (dst, callee, args) ->
        let v = call_value callee (List.map eval args) in
        (match dst with Some d -> env.(d) <- v | None -> ())
  in
  let consume () =
    st.steps <- st.steps + 1;
    st.fuel <- st.fuel - 1;
    if st.fuel <= 0 then raise (Error Fuel_exhausted)
  in
  let rec run_block (b : Ir.block) =
    List.iter
      (fun i ->
        consume ();
        step_instr i)
      b.body;
    consume ();
    match b.term with
    | Ir.Ret None -> 0
    | Ir.Ret (Some op) -> eval op
    | Ir.Br l -> goto l
    | Ir.Cond_br (c, l1, l2) -> if eval c <> 0 then goto l1 else goto l2
  and goto l =
    match Hashtbl.find_opt block_tbl l with
    | Some b -> run_block b
    | None -> fail "branch to unknown label %d in %s" l f.name
  in
  let result =
    match f.blocks with
    | entry :: _ -> run_block entry
    | [] -> fail "function %s has no blocks" f.name
  in
  st.sp <- saved_sp;
  st.depth <- st.depth - 1;
  result

let run ?(fuel = 50_000_000) ?(input = []) (p : Ir.program) =
  try
    let st = layout p in
    st.fuel <- fuel;
    List.iter (fun s -> Queue.push s st.input) input;
    let exit_code =
      match Ir.find_func p p.main with
      | None -> fail "main function %s not found" p.main
      | Some f -> ( try exec_func st f [] with Program_exit c -> c)
    in
    Ok
      {
        output = Buffer.contents st.out;
        exit_code;
        sensitive = List.rev st.sensitive;
        steps = st.steps;
      }
  with
  | Error e -> Result.Error e
  | R2c_machine.Fault.Fault f ->
      Result.Error (Runtime_error (R2c_machine.Fault.to_string f))
