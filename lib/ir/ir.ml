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

let instr_operands = function
  | Mov (_, o) | Load (_, o, _) | Load8 (_, o, _) -> [ o ]
  | Binop (_, _, a, b) | Cmp (_, _, a, b) | Store (a, _, b) | Store8 (a, _, b) -> [ a; b ]
  | Slot_addr _ -> []
  | Call (_, Indirect o, args) -> o :: args
  | Call (_, (Direct _ | Builtin _), args) -> args

let instr_with_operands i ops =
  match (i, ops) with
  | Mov (v, _), [ o ] -> Mov (v, o)
  | Binop (v, op, _, _), [ a; b ] -> Binop (v, op, a, b)
  | Cmp (v, c, _, _), [ a; b ] -> Cmp (v, c, a, b)
  | Load (v, _, off), [ b ] -> Load (v, b, off)
  | Load8 (v, _, off), [ b ] -> Load8 (v, b, off)
  | Store (_, off, _), [ b; v ] -> Store (b, off, v)
  | Store8 (_, off, _), [ b; v ] -> Store8 (b, off, v)
  | Slot_addr _, [] -> i
  | Call (d, Indirect _, _), o :: args -> Call (d, Indirect o, args)
  | Call (d, ((Direct _ | Builtin _) as callee), _), args -> Call (d, callee, args)
  | _ -> invalid_arg "Ir.instr_with_operands: arity mismatch"

let map_instr_operands f i = instr_with_operands i (List.map f (instr_operands i))

let instr_def = function
  | Mov (v, _) | Binop (v, _, _, _) | Cmp (v, _, _, _)
  | Load (v, _, _) | Load8 (v, _, _) | Slot_addr (v, _)
  | Call (Some v, _, _) ->
      Some v
  | Store _ | Store8 _ | Call (None, _, _) -> None

let term_operands = function
  | Ret (Some o) | Cond_br (o, _, _) -> [ o ]
  | Ret None | Br _ -> []

let map_term_operands f = function
  | Ret (Some o) -> Ret (Some (f o))
  | Cond_br (c, l1, l2) -> Cond_br (f c, l1, l2)
  | (Ret None | Br _) as t -> t

let term_succs = function
  | Ret _ -> []
  | Br l -> [ l ]
  | Cond_br (_, l1, l2) -> [ l1; l2 ]
