type error = { line : int; message : string }

let error_to_string e = Printf.sprintf "line %d: %s" e.line e.message

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let string_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c >= 32 && Char.code c < 127 -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "\\%02x" (Char.code c)))
    s;
  Buffer.contents buf

let operand_to_string = function
  | Ir.Const n -> string_of_int n
  | Ir.Var v -> Printf.sprintf "v%d" v
  | Ir.Global g -> "@" ^ g
  | Ir.Func f -> "&" ^ f

let binop_to_string = function
  | Ir.Add -> "add" | Ir.Sub -> "sub" | Ir.Mul -> "mul" | Ir.Div -> "div"
  | Ir.Rem -> "rem" | Ir.And -> "and" | Ir.Or -> "or" | Ir.Xor -> "xor"
  | Ir.Shl -> "shl" | Ir.Shr -> "shr" | Ir.Sar -> "sar"

let cmp_to_string = function
  | Ir.Eq -> "eq" | Ir.Ne -> "ne" | Ir.Lt -> "lt"
  | Ir.Le -> "le" | Ir.Gt -> "gt" | Ir.Ge -> "ge"

let args_to_string args = String.concat ", " (List.map operand_to_string args)

let instr_to_string = function
  | Ir.Mov (v, op) -> Printf.sprintf "v%d = mov %s" v (operand_to_string op)
  | Ir.Binop (v, op, a, b) ->
      Printf.sprintf "v%d = %s %s, %s" v (binop_to_string op) (operand_to_string a)
        (operand_to_string b)
  | Ir.Cmp (v, c, a, b) ->
      Printf.sprintf "v%d = cmp.%s %s, %s" v (cmp_to_string c) (operand_to_string a)
        (operand_to_string b)
  | Ir.Load (v, base, off) ->
      Printf.sprintf "v%d = load [%s + %d]" v (operand_to_string base) off
  | Ir.Load8 (v, base, off) ->
      Printf.sprintf "v%d = load8 [%s + %d]" v (operand_to_string base) off
  | Ir.Store (base, off, value) ->
      Printf.sprintf "store [%s + %d], %s" (operand_to_string base) off
        (operand_to_string value)
  | Ir.Store8 (base, off, value) ->
      Printf.sprintf "store8 [%s + %d], %s" (operand_to_string base) off
        (operand_to_string value)
  | Ir.Slot_addr (v, i) -> Printf.sprintf "v%d = slot %d" v i
  | Ir.Call (dst, callee, args) -> (
      let prefix = match dst with Some v -> Printf.sprintf "v%d = " v | None -> "" in
      match callee with
      | Ir.Direct f -> Printf.sprintf "%scall %s(%s)" prefix f (args_to_string args)
      | Ir.Builtin b -> Printf.sprintf "%scall !%s(%s)" prefix b (args_to_string args)
      | Ir.Indirect op ->
          Printf.sprintf "%scalli %s(%s)" prefix (operand_to_string op)
            (args_to_string args))

let term_to_string = function
  | Ir.Ret None -> "ret"
  | Ir.Ret (Some op) -> "ret " ^ operand_to_string op
  | Ir.Br l -> Printf.sprintf "br L%d" l
  | Ir.Cond_br (c, l1, l2) ->
      Printf.sprintf "cbr %s, L%d, L%d" (operand_to_string c) l1 l2

let to_string (p : Ir.program) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (g : Ir.global) ->
      let item = function
        | Ir.Word n -> Printf.sprintf "word %d" n
        | Ir.Sym_addr s -> Printf.sprintf "addr %s" s
        | Ir.Sym_addr_off (s, o) -> Printf.sprintf "addr %s + %d" s o
        | Ir.Str s -> Printf.sprintf "str \"%s\"" (string_escape s)
      in
      if g.ginit = [] then
        Buffer.add_string buf (Printf.sprintf "global %s : %d\n" g.gname g.gsize)
      else
        Buffer.add_string buf
          (Printf.sprintf "global %s : %d = %s\n" g.gname g.gsize
             (String.concat ", " (List.map item g.ginit))))
    p.globals;
  List.iter
    (fun (f : Ir.func) ->
      let params = String.concat ", " (List.init f.nparams (fun i -> Printf.sprintf "v%d" i)) in
      Buffer.add_string buf (Printf.sprintf "\nfunc %s(%s) {\n" f.name params);
      if Array.length f.slots > 0 then
        Buffer.add_string buf
          (Printf.sprintf "  slots %s\n"
             (String.concat ", " (Array.to_list (Array.map string_of_int f.slots))));
      List.iter
        (fun (b : Ir.block) ->
          Buffer.add_string buf (Printf.sprintf "L%d:\n" b.lbl);
          List.iter
            (fun i -> Buffer.add_string buf ("  " ^ instr_to_string i ^ "\n"))
            b.body;
          Buffer.add_string buf ("  " ^ term_to_string b.term ^ "\n"))
        f.blocks;
      Buffer.add_string buf "}\n")
    p.funcs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of error

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error { line; message = m })) fmt

(* Tokenizer: identifiers, integers, strings, punctuation. *)
type token =
  | Ident of string
  | Int of int
  | Str_lit of string
  | Punct of char  (* ( ) { } [ ] , = : + @ & ! *)

let tokenize line_no s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let peek () = if !i < n then Some s.[!i] else None in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = ';' || c = '#' then i := n (* comment *)
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      while
        !i < n
        &&
        let c = s.[!i] in
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_' || c = '.'
      do
        incr i
      done;
      toks := Ident (String.sub s start (!i - start)) :: !toks
    end
    else if (c >= '0' && c <= '9') || (c = '-' && (match peek () with Some _ -> true | None -> false))
    then begin
      let start = !i in
      if c = '-' then incr i;
      if !i + 1 < n && s.[!i] = '0' && (s.[!i + 1] = 'x' || s.[!i + 1] = 'X') then i := !i + 2;
      while
        !i < n
        &&
        let c = s.[!i] in
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
      do
        incr i
      done;
      let lit = String.sub s start (!i - start) in
      match int_of_string_opt lit with
      | Some v -> toks := Int v :: !toks
      | None -> fail line_no "bad integer literal %s" lit
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let rec go () =
        if !i >= n then fail line_no "unterminated string"
        else
          match s.[!i] with
          | '"' -> incr i
          | '\\' ->
              if !i + 1 >= n then fail line_no "dangling escape";
              (match s.[!i + 1] with
              | '"' ->
                  Buffer.add_char buf '"';
                  i := !i + 2
              | '\\' ->
                  Buffer.add_char buf '\\';
                  i := !i + 2
              | _ ->
                  if !i + 2 >= n then fail line_no "bad escape";
                  let hex = String.sub s (!i + 1) 2 in
                  (match int_of_string_opt ("0x" ^ hex) with
                  | Some v -> Buffer.add_char buf (Char.chr v)
                  | None -> fail line_no "bad escape \\%s" hex);
                  i := !i + 3);
              go ()
          | c ->
              Buffer.add_char buf c;
              incr i;
              go ()
      in
      go ();
      toks := Str_lit (Buffer.contents buf) :: !toks
    end
    else if String.contains "(){}[],=:+@&!" c then begin
      toks := Punct c :: !toks;
      incr i
    end
    else fail line_no "unexpected character %C" c
  done;
  List.rev !toks

(* Token-stream helpers over one line. *)
type cursor = { mutable toks : token list; line : int }

let next cur =
  match cur.toks with
  | [] -> fail cur.line "unexpected end of line"
  | t :: rest ->
      cur.toks <- rest;
      t

let peek_tok cur = match cur.toks with [] -> None | t :: _ -> Some t

let expect_punct cur c =
  match next cur with
  | Punct p when p = c -> ()
  | _ -> fail cur.line "expected %C" c

let expect_ident cur =
  match next cur with Ident s -> s | _ -> fail cur.line "expected identifier"

let expect_int cur = match next cur with Int v -> v | _ -> fail cur.line "expected integer"

let expect_end cur =
  match cur.toks with [] -> () | _ -> fail cur.line "trailing tokens"

let var_of_ident cur s =
  if String.length s >= 2 && s.[0] = 'v' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some v when v >= 0 -> v
    | Some _ | None -> fail cur.line "bad register %s" s
  else fail cur.line "expected register, got %s" s

let label_of_ident cur s =
  if String.length s >= 2 && s.[0] = 'L' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some l -> l
    | None -> fail cur.line "bad label %s" s
  else fail cur.line "expected label, got %s" s

let parse_operand cur =
  match next cur with
  | Int v -> Ir.Const v
  | Punct '@' -> Ir.Global (expect_ident cur)
  | Punct '&' -> Ir.Func (expect_ident cur)
  | Ident s -> Ir.Var (var_of_ident cur s)
  | _ -> fail cur.line "expected operand"

let parse_mem cur =
  expect_punct cur '[';
  let base = parse_operand cur in
  let off =
    match peek_tok cur with
    | Some (Punct '+') ->
        expect_punct cur '+';
        expect_int cur
    | Some (Int v) when v < 0 ->
        (* allow "[v0 -8]" shorthand via a negative literal *)
        ignore (next cur);
        v
    | _ -> 0
  in
  expect_punct cur ']';
  (base, off)

let parse_args cur =
  expect_punct cur '(';
  let rec go acc =
    match peek_tok cur with
    | Some (Punct ')') ->
        expect_punct cur ')';
        List.rev acc
    | _ -> (
        let op = parse_operand cur in
        match peek_tok cur with
        | Some (Punct ',') ->
            expect_punct cur ',';
            go (op :: acc)
        | _ ->
            expect_punct cur ')';
            List.rev (op :: acc))
  in
  go []

let parse_call cur dst kw =
  match kw with
  | "call" -> (
      match next cur with
      | Punct '!' ->
          let b = expect_ident cur in
          Ir.Call (dst, Ir.Builtin b, parse_args cur)
      | Ident f -> Ir.Call (dst, Ir.Direct f, parse_args cur)
      | _ -> fail cur.line "expected callee")
  | "calli" ->
      let target = parse_operand cur in
      Ir.Call (dst, Ir.Indirect target, parse_args cur)
  | _ -> fail cur.line "expected call or calli"

let binop_of_string = function
  | "add" -> Some Ir.Add | "sub" -> Some Ir.Sub | "mul" -> Some Ir.Mul
  | "div" -> Some Ir.Div | "rem" -> Some Ir.Rem | "and" -> Some Ir.And
  | "or" -> Some Ir.Or | "xor" -> Some Ir.Xor | "shl" -> Some Ir.Shl
  | "shr" -> Some Ir.Shr | "sar" -> Some Ir.Sar | _ -> None

let cmp_of_string = function
  | "eq" -> Some Ir.Eq | "ne" -> Some Ir.Ne | "lt" -> Some Ir.Lt
  | "le" -> Some Ir.Le | "gt" -> Some Ir.Gt | "ge" -> Some Ir.Ge
  | _ -> None

(* One body line: an instruction or a terminator. *)
type body_line =
  | Instr of Ir.instr
  | Term of Ir.term

let parse_body_line cur =
  match next cur with
  | Ident "ret" ->
      if cur.toks = [] then Term (Ir.Ret None) else Term (Ir.Ret (Some (parse_operand cur)))
  | Ident "br" -> Term (Ir.Br (label_of_ident cur (expect_ident cur)))
  | Ident "cbr" ->
      let c = parse_operand cur in
      expect_punct cur ',';
      let l1 = label_of_ident cur (expect_ident cur) in
      expect_punct cur ',';
      let l2 = label_of_ident cur (expect_ident cur) in
      Term (Ir.Cond_br (c, l1, l2))
  | Ident "store" | Ident "store8" as t ->
      let base, off = parse_mem cur in
      expect_punct cur ',';
      let value = parse_operand cur in
      if t = Ident "store" then Instr (Ir.Store (base, off, value))
      else Instr (Ir.Store8 (base, off, value))
  | Ident ("call" | "calli" as kw) -> Instr (parse_call cur None kw)
  | Ident s ->
      (* v<N> = <rhs> *)
      let v = var_of_ident cur s in
      expect_punct cur '=';
      let rhs = expect_ident cur in
      if rhs = "mov" then Instr (Ir.Mov (v, parse_operand cur))
      else if rhs = "slot" then Instr (Ir.Slot_addr (v, expect_int cur))
      else if rhs = "load" || rhs = "load8" then begin
        let base, off = parse_mem cur in
        if rhs = "load" then Instr (Ir.Load (v, base, off)) else Instr (Ir.Load8 (v, base, off))
      end
      else if rhs = "call" || rhs = "calli" then Instr (parse_call cur (Some v) rhs)
      else if String.length rhs > 4 && String.sub rhs 0 4 = "cmp." then begin
        match cmp_of_string (String.sub rhs 4 (String.length rhs - 4)) with
        | Some c ->
            let a = parse_operand cur in
            expect_punct cur ',';
            let b = parse_operand cur in
            Instr (Ir.Cmp (v, c, a, b))
        | None -> fail cur.line "unknown comparison %s" rhs
      end
      else begin
        match binop_of_string rhs with
        | Some op ->
            let a = parse_operand cur in
            expect_punct cur ',';
            let b = parse_operand cur in
            Instr (Ir.Binop (v, op, a, b))
        | None -> fail cur.line "unknown operation %s" rhs
      end
  | _ -> fail cur.line "expected instruction"

let parse_global cur =
  let gname = expect_ident cur in
  expect_punct cur ':';
  let gsize = expect_int cur in
  let ginit =
    match peek_tok cur with
    | None -> []
    | Some (Punct '=') ->
        expect_punct cur '=';
        let rec items acc =
          let item =
            match next cur with
            | Ident "word" -> Ir.Word (expect_int cur)
            | Ident "addr" -> (
                let s = expect_ident cur in
                match peek_tok cur with
                | Some (Punct '+') ->
                    expect_punct cur '+';
                    Ir.Sym_addr_off (s, expect_int cur)
                | _ -> Ir.Sym_addr s)
            | Ident "str" -> (
                match next cur with
                | Str_lit s -> Ir.Str s
                | _ -> fail cur.line "expected string literal")
            | _ -> fail cur.line "expected word/addr/str"
          in
          match peek_tok cur with
          | Some (Punct ',') ->
              expect_punct cur ',';
              items (item :: acc)
          | _ -> List.rev (item :: acc)
        in
        items []
    | Some _ -> fail cur.line "expected '=' or end of line"
  in
  expect_end cur;
  { Ir.gname; gsize; ginit }

(* Function parsing is stateful across lines. *)
type fstate = {
  fname : string;
  nparams : int;
  mutable slots : int list;
  mutable blocks_rev : (int * Ir.instr list * Ir.term) list;
  mutable cur_label : int option;
  mutable cur_body_rev : Ir.instr list;
  mutable max_var : int;
}

let operands_max_var =
  List.fold_left (fun acc o -> match o with Ir.Var v -> max acc v | _ -> acc) (-1)

let instr_max_var i =
  max (operands_max_var (Ir.instr_operands i)) (Option.value (Ir.instr_def i) ~default:(-1))

let term_max_var t = operands_max_var (Ir.term_operands t)

let close_block line fs term =
  match fs.cur_label with
  | None -> fail line "terminator outside a block in %s" fs.fname
  | Some lbl ->
      fs.blocks_rev <- (lbl, List.rev fs.cur_body_rev, term) :: fs.blocks_rev;
      fs.cur_label <- None;
      fs.cur_body_rev <- []

let finish_func line fs =
  if fs.cur_label <> None then fail line "unterminated block in %s" fs.fname;
  let blocks =
    List.rev_map (fun (lbl, body, term) -> { Ir.lbl; body; term }) fs.blocks_rev
  in
  if blocks = [] then fail line "function %s has no blocks" fs.fname;
  {
    Ir.name = fs.fname;
    nparams = fs.nparams;
    nvars = fs.max_var + 1;
    slots = Array.of_list fs.slots;
    blocks;
  }

let parse text =
  let lines = String.split_on_char '\n' text in
  let globals = ref [] in
  let funcs = ref [] in
  let state = ref None in
  try
    List.iteri
      (fun idx raw ->
        let line = idx + 1 in
        let toks = tokenize line raw in
        if toks = [] then ()
        else
          let cur = { toks; line } in
          match (!state, peek_tok cur) with
          | None, Some (Ident "global") ->
              ignore (next cur);
              globals := parse_global cur :: !globals
          | None, Some (Ident "func") ->
              ignore (next cur);
              let fname = expect_ident cur in
              expect_punct cur '(';
              let rec params n =
                match peek_tok cur with
                | Some (Punct ')') ->
                    expect_punct cur ')';
                    n
                | _ -> (
                    let s = expect_ident cur in
                    let v = var_of_ident cur s in
                    if v <> n then fail line "parameters must be v0, v1, ... in order";
                    match peek_tok cur with
                    | Some (Punct ',') ->
                        expect_punct cur ',';
                        params (n + 1)
                    | _ ->
                        expect_punct cur ')';
                        n + 1)
              in
              let nparams = params 0 in
              expect_punct cur '{';
              expect_end cur;
              state :=
                Some
                  {
                    fname;
                    nparams;
                    slots = [];
                    blocks_rev = [];
                    cur_label = None;
                    cur_body_rev = [];
                    max_var = nparams - 1;
                  }
          | None, _ -> fail line "expected 'global' or 'func'"
          | Some fs, Some (Punct '}') ->
              ignore (next cur);
              expect_end cur;
              funcs := finish_func line fs :: !funcs;
              state := None
          | Some fs, Some (Ident "slots") ->
              ignore (next cur);
              let rec sizes acc =
                let v = expect_int cur in
                match peek_tok cur with
                | Some (Punct ',') ->
                    expect_punct cur ',';
                    sizes (v :: acc)
                | _ -> List.rev (v :: acc)
              in
              fs.slots <- sizes [];
              expect_end cur
          | Some fs, Some (Ident s)
            when String.length s >= 2 && s.[0] = 'L'
                 && cur.toks <> []
                 && (match cur.toks with
                    | Ident _ :: Punct ':' :: _ -> true
                    | _ -> false) ->
              ignore (next cur);
              expect_punct cur ':';
              expect_end cur;
              if fs.cur_label <> None then
                fail line "label inside an unterminated block";
              fs.cur_label <- Some (label_of_ident cur s)
          | Some fs, Some _ -> (
              if fs.cur_label = None then fail line "instruction outside a block";
              match parse_body_line cur with
              | Instr i ->
                  expect_end cur;
                  fs.max_var <- max fs.max_var (instr_max_var i);
                  fs.cur_body_rev <- i :: fs.cur_body_rev
              | Term t ->
                  expect_end cur;
                  fs.max_var <- max fs.max_var (term_max_var t);
                  close_block line fs t)
          | _, None -> ())
      lines;
    (match !state with
    | Some fs -> fail (List.length lines) "unterminated function %s" fs.fname
    | None -> ());
    Ok { Ir.funcs = List.rev !funcs; globals = List.rev !globals; main = "main" }
  with Parse_error e -> Error e
