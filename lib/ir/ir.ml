type var = int
type label = int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type operand =
  | Const of int
  | Var of var
  | Global of string
  | Func of string

type callee =
  | Direct of string
  | Indirect of operand
  | Builtin of string

type instr =
  | Mov of var * operand
  | Binop of var * binop * operand * operand
  | Cmp of var * cmp * operand * operand
  | Load of var * operand * int
  | Load8 of var * operand * int
  | Store of operand * int * operand
  | Store8 of operand * int * operand
  | Slot_addr of var * int
  | Call of var option * callee * operand list

type term =
  | Ret of operand option
  | Br of label
  | Cond_br of operand * label * label

type block = { lbl : label; body : instr list; term : term }

type func = {
  name : string;
  nparams : int;
  nvars : int;
  slots : int array;
  blocks : block list;
}

type init_item =
  | Word of int
  | Sym_addr of string
  | Sym_addr_off of string * int
  | Str of string

type global = {
  gname : string;
  gsize : int;
  ginit : init_item list;
}

type program = { funcs : func list; globals : global list; main : string }

let find_func p name = List.find_opt (fun f -> f.name = name) p.funcs

let init_footprint items =
  List.fold_left
    (fun acc item ->
      acc
      + match item with Word _ | Sym_addr _ | Sym_addr_off _ -> 8 | Str s -> String.length s)
    0 items

let program_size p =
  List.fold_left
    (fun acc f ->
      acc + List.fold_left (fun a b -> a + List.length b.body + 1) 0 f.blocks)
    0 p.funcs
