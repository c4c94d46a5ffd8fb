type reg =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

let reg_index = function
  | RAX -> 0 | RBX -> 1 | RCX -> 2 | RDX -> 3
  | RSI -> 4 | RDI -> 5 | RBP -> 6 | RSP -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let reg_of_index = function
  | 0 -> RAX | 1 -> RBX | 2 -> RCX | 3 -> RDX
  | 4 -> RSI | 5 -> RDI | 6 -> RBP | 7 -> RSP
  | 8 -> R8 | 9 -> R9 | 10 -> R10 | 11 -> R11
  | 12 -> R12 | 13 -> R13 | 14 -> R14 | 15 -> R15
  | n -> invalid_arg (Printf.sprintf "Insn.reg_of_index: %d" n)

let reg_to_string = function
  | RAX -> "rax" | RBX -> "rbx" | RCX -> "rcx" | RDX -> "rdx"
  | RSI -> "rsi" | RDI -> "rdi" | RBP -> "rbp" | RSP -> "rsp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10" | R11 -> "r11"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"

type imm = Abs of int | Sym of string * int

type scale = S1 | S2 | S4 | S8

let scale_factor = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8

type mem_operand = {
  base : reg option;
  index : (reg * scale) option;
  disp : imm;
}

let mem ?base ?index ?(disp = 0) () = { base; index; disp = Abs disp }
let mem_sym ?base ?index sym off = { base; index; disp = Sym (sym, off) }

type operand = Imm of imm | Reg of reg | Mem of mem_operand

type cond = Eq | Ne | Lt | Le | Gt | Ge

type binop = Add | Sub | Imul | And | Or | Xor | Shl | Shr | Sar

type target = TAbs of int | TSym of string * int

type t =
  | Mov of operand * operand
  | Mov8 of operand * operand
  | Lea of reg * mem_operand
  | Push of operand
  | Pop of reg
  | Binop of binop * reg * operand
  | Div of reg * operand
  | Rem of reg * operand
  | Neg of reg
  | Cmp of operand * operand
  | Setcc of cond * reg
  | Jmp of target
  | Jmp_ind of operand
  | Jcc of cond * target
  | Call of target
  | Call_ind of operand
  | Ret
  | Nop of int
  | Trap
  | Vload of int * mem_operand
  | Vstore of mem_operand * int
  | Vload128 of int * mem_operand
  | Vstore128 of mem_operand * int
  | Vload512 of int * mem_operand
  | Vstore512 of mem_operand * int
  | Vzeroupper
  | Halt

(* Encoded sizes, approximating x86-64: immediates that fit 32 bits use the
   short encodings; symbolic immediates are assumed to be resolvable into 32
   bits (text and GOT-relative values) except Mov reg, imm which uses the
   movabs form. *)

let fits32 = function Abs n -> n >= -0x8000_0000 && n < 0x1_0000_0000 | Sym _ -> true

let mem_size { base; index; disp } =
  let disp_bytes =
    match disp with
    | Abs 0 when base <> None -> 0
    | Abs n when n >= -128 && n < 128 -> 1
    | Abs _ | Sym _ -> 4
  in
  1 (* modrm *) + (if index <> None then 1 else 0) + (if base = None then 4 - disp_bytes else 0)
  + disp_bytes

let operand_size = function
  | Imm i -> if fits32 i then 4 else 8
  | Reg _ -> 0
  | Mem m -> mem_size m

let size = function
  | Mov (Reg _, Imm (Abs n)) when n < -0x8000_0000 || n >= 0x1_0000_0000 -> 10 (* movabs *)
  | Mov (Reg _, Imm _) -> 7
  | Mov (Reg _, Reg _) -> 3
  | Mov (Reg _, Mem m) | Mov (Mem m, Reg _) -> 3 + mem_size m
  | Mov (Mem m, Imm _) -> 7 + mem_size m
  | Mov (_, _) -> 10 (* not encodable on x86 either; conservative *)
  | Mov8 (Reg _, Mem m) | Mov8 (Mem m, Reg _) -> 3 + mem_size m
  | Mov8 (Mem m, Imm _) -> 3 + mem_size m
  | Mov8 (_, _) -> 4
  | Lea (_, m) -> 2 + mem_size m
  | Push (Reg _) -> 2
  | Push (Imm _) -> 5 (* push imm32, the BTRA embedding of Section 5.1 *)
  | Push (Mem m) -> 2 + mem_size m (* push from the GOT *)
  | Pop _ -> 2
  | Binop (_, _, o) -> 3 + operand_size o
  | Div (_, o) | Rem (_, o) -> 4 + operand_size o
  | Neg _ -> 3
  | Cmp (o1, o2) -> 3 + operand_size o1 + operand_size o2
  | Setcc _ -> 4
  | Jmp _ -> 5
  | Jmp_ind o -> 2 + operand_size o
  | Jcc _ -> 6
  | Call _ -> 5
  | Call_ind o -> 2 + operand_size o
  | Ret -> 1
  | Nop n -> n
  | Trap -> 1
  | Vload (_, m) | Vstore (m, _) -> 4 + mem_size m
  | Vload128 (_, m) | Vstore128 (m, _) -> 3 + mem_size m
  | Vload512 (_, m) | Vstore512 (m, _) -> 6 + mem_size m
  | Vzeroupper -> 3
  | Halt -> 2

let imm_to_string = function
  | Abs n -> Printf.sprintf "0x%x" n
  | Sym (s, 0) -> s
  | Sym (s, o) -> Printf.sprintf "%s+%d" s o

let mem_to_string { base; index; disp } =
  let parts =
    (match base with Some r -> [ reg_to_string r ] | None -> [])
    @ (match index with
      | Some (r, s) -> [ Printf.sprintf "%s*%d" (reg_to_string r) (scale_factor s) ]
      | None -> [])
    @ (match disp with Abs 0 when base <> None -> [] | d -> [ imm_to_string d ])
  in
  "[" ^ String.concat "+" parts ^ "]"

let operand_to_string = function
  | Imm i -> imm_to_string i
  | Reg r -> reg_to_string r
  | Mem m -> mem_to_string m

let cond_to_string = function
  | Eq -> "e" | Ne -> "ne" | Lt -> "l" | Le -> "le" | Gt -> "g" | Ge -> "ge"

let binop_to_string = function
  | Add -> "add" | Sub -> "sub" | Imul -> "imul" | And -> "and"
  | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr" | Sar -> "sar"

let target_to_string = function
  | TAbs a -> Printf.sprintf "0x%x" a
  | TSym (s, 0) -> s
  | TSym (s, o) -> Printf.sprintf "%s+%d" s o

let to_string = function
  | Mov (d, s) -> Printf.sprintf "mov %s, %s" (operand_to_string d) (operand_to_string s)
  | Mov8 (d, s) -> Printf.sprintf "movb %s, %s" (operand_to_string d) (operand_to_string s)
  | Lea (r, m) -> Printf.sprintf "lea %s, %s" (reg_to_string r) (mem_to_string m)
  | Push o -> Printf.sprintf "push %s" (operand_to_string o)
  | Pop r -> Printf.sprintf "pop %s" (reg_to_string r)
  | Binop (op, r, o) ->
      Printf.sprintf "%s %s, %s" (binop_to_string op) (reg_to_string r) (operand_to_string o)
  | Div (r, o) -> Printf.sprintf "div %s, %s" (reg_to_string r) (operand_to_string o)
  | Rem (r, o) -> Printf.sprintf "rem %s, %s" (reg_to_string r) (operand_to_string o)
  | Neg r -> Printf.sprintf "neg %s" (reg_to_string r)
  | Cmp (a, b) -> Printf.sprintf "cmp %s, %s" (operand_to_string a) (operand_to_string b)
  | Setcc (c, r) -> Printf.sprintf "set%s %s" (cond_to_string c) (reg_to_string r)
  | Jmp t -> Printf.sprintf "jmp %s" (target_to_string t)
  | Jmp_ind o -> Printf.sprintf "jmp *%s" (operand_to_string o)
  | Jcc (c, t) -> Printf.sprintf "j%s %s" (cond_to_string c) (target_to_string t)
  | Call t -> Printf.sprintf "call %s" (target_to_string t)
  | Call_ind o -> Printf.sprintf "call *%s" (operand_to_string o)
  | Ret -> "ret"
  | Nop n -> Printf.sprintf "nop%d" n
  | Trap -> "int3"
  | Vload (i, m) -> Printf.sprintf "vmovdqu ymm%d, %s" i (mem_to_string m)
  | Vstore (m, i) -> Printf.sprintf "vmovdqu %s, ymm%d" (mem_to_string m) i
  | Vload128 (i, m) -> Printf.sprintf "movdqu xmm%d, %s" i (mem_to_string m)
  | Vstore128 (m, i) -> Printf.sprintf "movdqu %s, xmm%d" (mem_to_string m) i
  | Vload512 (i, m) -> Printf.sprintf "vmovdqu64 zmm%d, %s" i (mem_to_string m)
  | Vstore512 (m, i) -> Printf.sprintf "vmovdqu64 %s, zmm%d" (mem_to_string m) i
  | Vzeroupper -> "vzeroupper"
  | Halt -> "hlt"

(* An injective binary encoding, for hashing: a tag byte per
   constructor, then its fields in order — registers and the small
   enumerations as one byte, ints as 8 bytes, strings length-prefixed.
   An absent register is byte 16, which no register encodes. *)
let add_int b v = Buffer.add_int64_le b (Int64.of_int v)
let add_str b s = add_int b (String.length s); Buffer.add_string b s
let add_reg b r = Buffer.add_uint8 b (reg_index r)

let add_imm b = function
  | Abs v -> Buffer.add_uint8 b 0; add_int b v
  | Sym (s, o) -> Buffer.add_uint8 b 1; add_str b s; add_int b o

let add_mem b m =
  (match m.base with None -> Buffer.add_uint8 b 16 | Some r -> add_reg b r);
  (match m.index with
  | None -> Buffer.add_uint8 b 16
  | Some (r, s) -> add_reg b r; Buffer.add_uint8 b (scale_factor s));
  add_imm b m.disp

let add_op b = function
  | Imm i -> Buffer.add_uint8 b 0; add_imm b i
  | Reg r -> Buffer.add_uint8 b 1; add_reg b r
  | Mem m -> Buffer.add_uint8 b 2; add_mem b m

let add_tgt b = function
  | TAbs a -> Buffer.add_uint8 b 0; add_int b a
  | TSym (s, o) -> Buffer.add_uint8 b 1; add_str b s; add_int b o

let cond_code = function Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

let binop_code = function
  | Add -> 0 | Sub -> 1 | Imul -> 2 | And -> 3 | Or -> 4 | Xor -> 5 | Shl -> 6 | Shr -> 7 | Sar -> 8

let add_binary b insn =
  let tag t = Buffer.add_uint8 b t in
  match insn with
  | Mov (d, s) -> tag 0; add_op b d; add_op b s
  | Mov8 (d, s) -> tag 1; add_op b d; add_op b s
  | Lea (r, m) -> tag 2; add_reg b r; add_mem b m
  | Push o -> tag 3; add_op b o
  | Pop r -> tag 4; add_reg b r
  | Binop (op, r, o) -> tag 5; Buffer.add_uint8 b (binop_code op); add_reg b r; add_op b o
  | Div (r, o) -> tag 6; add_reg b r; add_op b o
  | Rem (r, o) -> tag 7; add_reg b r; add_op b o
  | Neg r -> tag 8; add_reg b r
  | Cmp (x, y) -> tag 9; add_op b x; add_op b y
  | Setcc (c, r) -> tag 10; Buffer.add_uint8 b (cond_code c); add_reg b r
  | Jmp t -> tag 11; add_tgt b t
  | Jmp_ind o -> tag 12; add_op b o
  | Jcc (c, t) -> tag 13; Buffer.add_uint8 b (cond_code c); add_tgt b t
  | Call t -> tag 14; add_tgt b t
  | Call_ind o -> tag 15; add_op b o
  | Ret -> tag 16
  | Nop n -> tag 17; add_int b n
  | Trap -> tag 18
  | Vload (i, m) -> tag 19; add_int b i; add_mem b m
  | Vstore (m, i) -> tag 20; add_mem b m; add_int b i
  | Vload128 (i, m) -> tag 21; add_int b i; add_mem b m
  | Vstore128 (m, i) -> tag 22; add_mem b m; add_int b i
  | Vload512 (i, m) -> tag 23; add_int b i; add_mem b m
  | Vstore512 (m, i) -> tag 24; add_mem b m; add_int b i
  | Vzeroupper -> tag 25
  | Halt -> tag 26

let imm_resolved = function Abs _ -> true | Sym _ -> false

let mem_resolved m = imm_resolved m.disp

let operand_resolved = function
  | Imm i -> imm_resolved i
  | Reg _ -> true
  | Mem m -> mem_resolved m

let target_resolved = function TAbs _ -> true | TSym _ -> false

let is_resolved = function
  | Mov (a, b) | Mov8 (a, b) | Cmp (a, b) -> operand_resolved a && operand_resolved b
  | Lea (_, m) -> mem_resolved m
  | Push o | Jmp_ind o | Call_ind o | Binop (_, _, o) | Div (_, o) | Rem (_, o) ->
      operand_resolved o
  | Jmp t | Jcc (_, t) | Call t -> target_resolved t
  | Vload (_, m) | Vstore (m, _)
  | Vload128 (_, m) | Vstore128 (m, _)
  | Vload512 (_, m) | Vstore512 (m, _) -> mem_resolved m
  | Pop _ | Neg _ | Setcc _ | Ret | Nop _ | Trap | Vzeroupper | Halt -> true

(* Unchanged parts are shared, not rebuilt: relinking resolves tens of
   thousands of instructions per image, and the helpers take [f]
   explicitly so no closure is built per call. *)
let map_imm f = function Abs _ as i -> i | Sym (s, o) -> Abs (f s o)

let map_mem f m = match m.disp with Abs _ -> m | Sym (s, o) -> { m with disp = Abs (f s o) }

let map_op f = function
  | Imm (Sym _ as i) -> Imm (map_imm f i)
  | Mem m as o ->
      let m' = map_mem f m in
      if m' == m then o else Mem m'
  | (Imm (Abs _) | Reg _) as o -> o

let map_tgt f = function TAbs _ as t -> t | TSym (s, o) -> TAbs (f s o)

let map_syms f = function
  | Mov (a, b) -> Mov (map_op f a, map_op f b)
  | Mov8 (a, b) -> Mov8 (map_op f a, map_op f b)
  | Lea (r, m) -> Lea (r, map_mem f m)
  | Push o -> Push (map_op f o)
  | Binop (b, r, o) -> Binop (b, r, map_op f o)
  | Div (r, o) -> Div (r, map_op f o)
  | Rem (r, o) -> Rem (r, map_op f o)
  | Cmp (a, b) -> Cmp (map_op f a, map_op f b)
  | Jmp t -> Jmp (map_tgt f t)
  | Jmp_ind o -> Jmp_ind (map_op f o)
  | Jcc (c, t) -> Jcc (c, map_tgt f t)
  | Call t -> Call (map_tgt f t)
  | Call_ind o -> Call_ind (map_op f o)
  | Vload (i, m) -> Vload (i, map_mem f m)
  | Vstore (m, i) -> Vstore (map_mem f m, i)
  | Vload128 (i, m) -> Vload128 (i, map_mem f m)
  | Vstore128 (m, i) -> Vstore128 (map_mem f m, i)
  | Vload512 (i, m) -> Vload512 (i, map_mem f m)
  | Vstore512 (m, i) -> Vstore512 (map_mem f m, i)
  | (Pop _ | Neg _ | Setcc _ | Ret | Nop _ | Trap | Vzeroupper | Halt) as i -> i
