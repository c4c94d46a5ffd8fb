module Insn = R2c_machine.Insn
module Image = R2c_machine.Image
module Emit = R2c_compiler.Emit
module Regalloc = R2c_compiler.Regalloc

type finding = {
  tv_func : string;
  tv_block : int option;  (* IR block label, [None] for function-level *)
  tv_addr : int option;  (* machine address of the disagreement *)
  tv_what : string;
}

type report = { findings : finding list; funcs : int; blocks : int }

let finding_to_string fd =
  Printf.sprintf "%s%s%s: %s" fd.tv_func
    (match fd.tv_block with Some l -> Printf.sprintf ".L%d" l | None -> "")
    (match fd.tv_addr with Some a -> Printf.sprintf " @0x%x" a | None -> "")
    fd.tv_what

(* Symbolic values. Both sides build expressions with the same
   constructors through the same smart helpers, so refinement reduces to
   structural equality. [X_sp] is the machine-only frame-relative stack
   pointer (frame base = offset 0); it never flows into an IR-visible
   value. [X_ev k] names the result of the k-th memory/call event;
   [X_junk] is a havoc value unequal to everything else. *)
type sexpr =
  | X_init of int  (* IR var's value at block entry *)
  | X_entry of int  (* machine register (by index) at function entry *)
  | X_const of int
  | X_slot of int * int  (* address of IR slot i, plus byte offset *)
  | X_sp of int
  | X_binop of Ir.binop * sexpr * sexpr
  | X_cmp of Ir.cmp * sexpr * sexpr
  | X_ev of int
  | X_junk of int

type callee_x = C_abs of int | C_sym of sexpr

type event =
  | Ev_load of int * sexpr  (* width, address *)
  | Ev_store of int * sexpr * sexpr  (* width, address, value *)
  | Ev_call of callee_x * sexpr list

let binop_str = function
  | Ir.Add -> "+" | Ir.Sub -> "-" | Ir.Mul -> "*" | Ir.Div -> "/" | Ir.Rem -> "%"
  | Ir.And -> "&" | Ir.Or -> "|" | Ir.Xor -> "^" | Ir.Shl -> "<<" | Ir.Shr -> ">>"
  | Ir.Sar -> ">>a"

let cmp_str = function
  | Ir.Eq -> "==" | Ir.Ne -> "!=" | Ir.Lt -> "<" | Ir.Le -> "<=" | Ir.Gt -> ">"
  | Ir.Ge -> ">="

let rec pp_x = function
  | X_init v -> Printf.sprintf "v%d@in" v
  | X_entry r -> Printf.sprintf "%s@entry" (Insn.reg_to_string (Insn.reg_of_index r))
  | X_const n -> string_of_int n
  | X_slot (i, 0) -> Printf.sprintf "&slot%d" i
  | X_slot (i, d) -> Printf.sprintf "&slot%d%+d" i d
  | X_sp d -> Printf.sprintf "sp%+d" d
  | X_binop (op, a, b) -> Printf.sprintf "(%s %s %s)" (pp_x a) (binop_str op) (pp_x b)
  | X_cmp (c, a, b) -> Printf.sprintf "(%s %s %s)" (pp_x a) (cmp_str c) (pp_x b)
  | X_ev k -> Printf.sprintf "ev%d" k
  | X_junk k -> Printf.sprintf "junk%d" k

let pp_event = function
  | Ev_load (w, a) -> Printf.sprintf "load%d %s" w (pp_x a)
  | Ev_store (w, a, v) -> Printf.sprintf "store%d %s := %s" w (pp_x a) (pp_x v)
  | Ev_call (c, args) ->
      Printf.sprintf "call %s(%s)"
        (match c with C_abs a -> Printf.sprintf "0x%x" a | C_sym e -> pp_x e)
        (String.concat ", " (List.map pp_x args))

(* Offset folding shared by both sides: constant displacement on a
   constant, slot or stack-pointer base stays flat, so the machine's
   [base + disp] addressing rebuilds exactly the IR's [operand + off]. *)
let add_off x d =
  if d = 0 then x
  else
    match x with
    | X_const c -> X_const (c + d)
    | X_slot (i, k) -> X_slot (i, k + d)
    | X_sp k -> X_sp (k + d)
    | _ -> X_binop (Ir.Add, x, X_const d)

let mk_binop op a b =
  match (op, a, b) with
  | Ir.Add, X_sp d, X_const c -> X_sp (d + c)
  | Ir.Sub, X_sp d, X_const c -> X_sp (d - c)
  | _ -> X_binop (op, a, b)

(* --- IR side: a block's expected events and exit environment --- *)

let build_expected ~sym (f : Ir.func) (b : Ir.block) =
  let env = Array.init (max f.nvars 1) (fun v -> X_init v) in
  let rev_events = ref [] in
  let nev = ref 0 in
  let push e =
    rev_events := e :: !rev_events;
    let k = !nev in
    incr nev;
    k
  in
  let eval = function
    | Ir.Const n -> X_const n
    | Ir.Var v -> env.(v)
    | Ir.Global g -> X_const (sym g)
    | Ir.Func fn -> X_const (sym fn)
  in
  List.iter
    (fun instr ->
      match instr with
      | Ir.Mov (v, op) -> env.(v) <- eval op
      | Ir.Binop (v, op, a, b) -> env.(v) <- X_binop (op, eval a, eval b)
      | Ir.Cmp (v, c, a, b) -> env.(v) <- X_cmp (c, eval a, eval b)
      | Ir.Load (v, base, off) ->
          let k = push (Ev_load (8, add_off (eval base) off)) in
          env.(v) <- X_ev k
      | Ir.Load8 (v, base, off) ->
          let k = push (Ev_load (1, add_off (eval base) off)) in
          env.(v) <- X_ev k
      | Ir.Store (base, off, value) ->
          ignore (push (Ev_store (8, add_off (eval base) off, eval value)))
      | Ir.Store8 (base, off, value) ->
          ignore (push (Ev_store (1, add_off (eval base) off, eval value)))
      | Ir.Slot_addr (v, i) -> env.(v) <- X_slot (i, 0)
      | Ir.Call (dst, callee, args) ->
          let cal =
            match callee with
            | Ir.Direct n | Ir.Builtin n -> C_abs (sym n)
            | Ir.Indirect op -> C_sym (eval op)
          in
          let k = push (Ev_call (cal, List.map eval args)) in
          (match dst with Some d -> env.(d) <- X_ev k | None -> ()))
    b.body;
  (Array.of_list (List.rev !rev_events), env)

(* --- machine side --- *)

exception Mismatch of int * string

let fail pc fmt = Printf.ksprintf (fun m -> raise (Mismatch (pc, m))) fmt

let ir_of_mop : Insn.binop -> Ir.binop = function
  | Insn.Add -> Ir.Add
  | Insn.Sub -> Ir.Sub
  | Insn.Imul -> Ir.Mul
  | Insn.And -> Ir.And
  | Insn.Or -> Ir.Or
  | Insn.Xor -> Ir.Xor
  | Insn.Shl -> Ir.Shl
  | Insn.Shr -> Ir.Shr
  | Insn.Sar -> Ir.Sar

let ir_of_cond : Insn.cond -> Ir.cmp = function
  | Insn.Eq -> Ir.Eq
  | Insn.Ne -> Ir.Ne
  | Insn.Lt -> Ir.Lt
  | Insn.Le -> Ir.Le
  | Insn.Gt -> Ir.Gt
  | Insn.Ge -> Ir.Ge

let ri = Insn.reg_index

type mst = {
  regs : sexpr array;  (* by register index *)
  spill : sexpr array;
  save : sexpr array;  (* by register index; prologue-established values *)
  below : (int, sexpr) Hashtbl.t;  (* frame offset < 0 -> value *)
  mutable flags : (sexpr * sexpr) option;
  mutable junk : int;
  mutable evi : int;  (* next expected event *)
}

let block_fuel = 200_000

(* Validate one IR block against its machine code extent.
   [start]..[end_addr) is the extent; [body_start] is the address of the
   function's first label (machine addresses below it are prologue). *)
let check_block ~img ~(meta : Emit.tvmeta) ~(f : Ir.func) ~events ~(env : sexpr array)
    ~live_in ~live_out ~label_addr ~start ~end_addr ~body_start (b : Ir.block) =
  let frame_size = meta.Emit.tv_frame_size in
  let post_words = meta.Emit.tv_post_words in
  let entry_delta = frame_size + (8 * post_words) in
  let is_entry = start < body_start || start <> label_addr b.Ir.lbl in
  let spill_at = Hashtbl.create 8 in
  Array.iteri (fun k off -> Hashtbl.replace spill_at off k) meta.Emit.tv_spill_off;
  let save_at = Hashtbl.create 8 in
  List.iter (fun (r, off) -> Hashtbl.replace save_at off r) meta.Emit.tv_save;
  let irslot_at = Hashtbl.create 8 in
  Array.iteri (fun i off -> Hashtbl.replace irslot_at off i) meta.Emit.tv_ir_off;
  let st =
    {
      regs = Array.init 16 (fun _ -> X_junk 0);
      spill = Array.make (max (Array.length meta.Emit.tv_spill_off) 1) (X_junk 0);
      save = Array.init 16 (fun r -> X_entry r);
      below = Hashtbl.create 16;
      flags = None;
      junk = 0;
      evi = 0;
    }
  in
  let junk () =
    st.junk <- st.junk + 1;
    X_junk st.junk
  in
  for r = 0 to 15 do
    st.regs.(r) <- (if is_entry then X_entry r else junk ())
  done;
  for k = 0 to Array.length st.spill - 1 do
    st.spill.(k) <- junk ()
  done;
  if is_entry then begin
    st.regs.(ri Insn.RSP) <- X_sp entry_delta;
    List.iteri
      (fun i r -> if i < f.nparams then st.regs.(ri r) <- X_init i)
      Emit.arg_regs
  end
  else begin
    st.regs.(ri Insn.RSP) <- X_sp 0;
    (* Homes of live-in vars carry their block-entry values; everything
       else is havoc (reading it would be a use-before-init). *)
    Dataflow.Iset.iter
      (fun v ->
        match meta.Emit.tv_assign.(v) with
        | Regalloc.In_reg r -> st.regs.(ri r) <- X_init v
        | Regalloc.Spilled k -> st.spill.(k) <- X_init v)
      live_in
  end;
  let get_delta pc =
    match st.regs.(ri Insn.RSP) with
    | X_sp d -> d
    | v -> fail pc "rsp holds non-stack value %s" (pp_x v)
  in
  let expect_event pc =
    if st.evi >= Array.length events then fail pc "machine effect beyond the IR's events";
    let e = events.(st.evi) in
    st.evi <- st.evi + 1;
    e
  in
  let consume_load pc w addr =
    match expect_event pc with
    | Ev_load (w', a') when w = w' && addr = a' -> X_ev (st.evi - 1)
    | e -> fail pc "load%d %s where IR expects %s" w (pp_x addr) (pp_event e)
  in
  let consume_store pc w addr value =
    match expect_event pc with
    | Ev_store (w', a', v') when w = w' && addr = a' && value = v' -> ()
    | e ->
        fail pc "store%d %s := %s where IR expects %s" w (pp_x addr) (pp_x value)
          (pp_event e)
  in
  let rbp_entry_off = function
    | X_entry r when r = ri Insn.RBP -> Some 0
    | X_binop (Ir.Add, X_entry r, X_const d) when r = ri Insn.RBP -> Some d
    | _ -> None
  in
  let stack_param pc eff =
    (* Incoming stack parameter j at [frame + post + RA + 8*(j-6)]. *)
    let base = entry_delta + 8 in
    if eff < base || (eff - base) mod 8 <> 0 then fail pc "unaligned stack-parameter read";
    let j = 6 + ((eff - base) / 8) in
    if j >= f.nparams then fail pc "stack-parameter read beyond nparams";
    X_init j
  in
  let mem_read pc ~prologue w addr =
    match addr with
    | X_sp eff ->
        if eff < 0 then (
          match Hashtbl.find_opt st.below eff with Some v -> v | None -> junk ())
        else if eff < frame_size then (
          match Hashtbl.find_opt spill_at eff with
          | Some k when w = 8 -> st.spill.(k)
          | _ -> (
              match Hashtbl.find_opt save_at eff with
              | Some r when w = 8 -> st.save.(ri r)
              | _ ->
                  if prologue then junk ()
                  else fail pc "body read of camouflage frame slot sp+%d" eff))
        else if prologue && w = 8 then stack_param pc eff
        else fail pc "read above the frame (sp+%d)" eff
    | _ -> (
        match rbp_entry_off addr with
        | Some d when prologue && d mod 8 = 0 ->
            (* Offset-invariant addressing: rbp marks the caller's first
               stack argument (Section 5.1.1). *)
            let j = 6 + (d / 8) in
            if j >= f.nparams then fail pc "OIA stack-parameter read beyond nparams";
            X_init j
        | _ -> if prologue then junk () else consume_load pc w addr)
  in
  let mem_write pc ~prologue w addr value =
    match addr with
    | X_sp eff ->
        if eff < 0 then Hashtbl.replace st.below eff value
        else if eff < frame_size then (
          match Hashtbl.find_opt spill_at eff with
          | Some k when w = 8 -> st.spill.(k) <- value
          | _ -> (
              match Hashtbl.find_opt save_at eff with
              | Some r when w = 8 -> st.save.(ri r) <- value
              | _ ->
                  (* BTDP copies and padding writes are prologue-only
                     camouflage; the body never touches those slots. *)
                  if not prologue then fail pc "body write to camouflage frame slot sp+%d" eff))
        else fail pc "write above the frame (sp+%d)" eff
    | _ ->
        if prologue then fail pc "prologue store outside the frame"
        else consume_store pc w addr value
  in
  let addr_of pc (m : Insn.mem_operand) =
    (match m.Insn.index with
    | Some _ -> fail pc "indexed addressing is never emitted"
    | None -> ());
    let d = match m.Insn.disp with Insn.Abs n -> n | Insn.Sym _ -> fail pc "unresolved disp" in
    match m.Insn.base with
    | None -> X_const d
    | Some r -> add_off st.regs.(ri r) d
  in
  let value_of pc ~prologue w = function
    | Insn.Reg r -> st.regs.(ri r)
    | Insn.Imm (Insn.Abs n) -> X_const n
    | Insn.Imm (Insn.Sym _) -> fail pc "unresolved immediate"
    | Insn.Mem m -> mem_read pc ~prologue w (addr_of pc m)
  in
  let set_reg r v = st.regs.(ri r) <- v in
  let eval_final = function
    | Ir.Const n -> X_const n
    | Ir.Var v -> env.(v)
    | Ir.Global g -> X_const (Image.symbol img g)
    | Ir.Func fn -> X_const (Image.symbol img fn)
  in
  let code_at pc =
    match Image.code_at img pc with
    | Some (insn, len) -> (insn, len)
    | None -> fail pc "no instruction (hole in the block's extent)"
  in
  (* Forward-scan: is [pc..target) nothing but traps? (prolog sled,
     post-return check bodies). *)
  let all_traps_until pc0 target =
    let rec go pc =
      if pc = target then true
      else if pc > target then false
      else
        match Image.code_at img pc with
        | Some (Insn.Trap, len) -> go (pc + len)
        | _ -> false
    in
    target > pc0 && go pc0
  in
  let do_call pc target =
    let delta = get_delta pc in
    (match expect_event pc with
    | Ev_call (cal, args) ->
        let target_ok =
          match (cal, target) with
          | C_abs a, `Abs t -> a = t
          | C_sym e, `Abs t -> e = X_const t
          | C_abs a, `Val v -> v = X_const a
          | C_sym e, `Val v -> e = v
        in
        if not target_ok then
          fail pc "call target %s disagrees with IR callee %s"
            (match target with `Abs t -> Printf.sprintf "0x%x" t | `Val v -> pp_x v)
            (match cal with C_abs a -> Printf.sprintf "0x%x" a | C_sym e -> pp_x e);
        let nargs = List.length args in
        List.iteri
          (fun j a ->
            if j < 6 then begin
              let got = st.regs.(ri (List.nth Emit.arg_regs j)) in
              if got <> a then
                fail pc "call argument %d is %s where IR expects %s" j (pp_x got) (pp_x a)
            end)
          args;
        let k = max 0 (nargs - 6) in
        let pad = k land 1 in
        for j = 0 to k - 1 do
          (* Stack args were pushed from the balanced frame, so their
             offsets are BTRA-invariant: pad below the frame base, then
             args right-to-left. *)
          let off = (-8 * (pad + k)) + (8 * j) in
          let a = List.nth args (6 + j) in
          match Hashtbl.find_opt st.below off with
          | Some got when got = a -> ()
          | Some got ->
              fail pc "stack argument %d is %s where IR expects %s" (6 + j) (pp_x got)
                (pp_x a)
          | None -> fail pc "stack argument %d was never pushed" (6 + j)
        done;
        st.regs.(ri Insn.RAX) <- X_ev (st.evi - 1)
    | e -> fail pc "call where IR expects %s" (pp_event e));
    (* The callee owns everything below its RA slot; caller-saved
       registers and flags are havoc after the return. *)
    List.iter
      (fun r -> set_reg r (junk ()))
      Insn.[ RCX; RDX; RSI; RDI; R8; R9; R10; R11; RBP ];
    st.flags <- None;
    Hashtbl.iter
      (fun off _ -> if off < delta then Hashtbl.remove st.below off)
      (Hashtbl.copy st.below)
  in
  let cond_done = ref false in
  let finish_events pc =
    if st.evi < Array.length events then
      fail pc "block ends with IR effects unperformed (next: %s)"
        (pp_event events.(st.evi))
  in
  let check_homes pc =
    Dataflow.Iset.iter
      (fun v ->
        let got =
          match meta.Emit.tv_assign.(v) with
          | Regalloc.In_reg r -> st.regs.(ri r)
          | Regalloc.Spilled k -> st.spill.(k)
        in
        if got <> env.(v) then
          fail pc "live-out v%d holds %s where IR expects %s" v (pp_x got) (pp_x env.(v)))
      live_out
  in
  let finish_branch pc =
    finish_events pc;
    check_homes pc;
    let d = get_delta pc in
    if d <> 0 then fail pc "stack unbalanced at block exit (sp%+d)" d
  in
  let finish_ret pc op =
    finish_events pc;
    let expected = match op with Some o -> eval_final o | None -> X_const 0 in
    let rax = st.regs.(ri Insn.RAX) in
    if rax <> expected then
      fail pc "return value %s where IR expects %s" (pp_x rax) (pp_x expected);
    let d = get_delta pc in
    if d <> entry_delta then fail pc "frame not released before ret (sp%+d)" d;
    List.iter
      (fun (r, _) ->
        if st.regs.(ri r) <> X_entry (ri r) then
          fail pc "callee-saved %s not restored (%s)" (Insn.reg_to_string r)
            (pp_x st.regs.(ri r)))
      meta.Emit.tv_save
  in
  let rec step pc fuel =
    if fuel <= 0 then fail pc "block validation fuel exhausted"
    else if pc = end_addr then begin
      (* Fallthrough into the next label. *)
      match b.Ir.term with
      | Ir.Br l ->
          if label_addr l <> end_addr then
            fail pc "falls through to 0x%x, IR branches to L%d" end_addr l;
          finish_branch pc
      | Ir.Cond_br (_, _, l2) ->
          if not !cond_done then fail pc "conditional branch never tested";
          if label_addr l2 <> end_addr then
            fail pc "falls through to 0x%x, IR else-branch is L%d" end_addr l2;
          finish_branch pc
      | Ir.Ret _ -> fail pc "falls out of the block where IR returns"
    end
    else if pc > end_addr || pc < start then fail pc "pc escaped the block extent"
    else begin
      let insn, len = code_at pc in
      let prologue = is_entry && pc < body_start in
      let next = pc + len in
      match insn with
      | Insn.Nop _ -> step next (fuel - 1)
      | Insn.Mov (dst, src) | Insn.Mov8 (dst, src) -> (
          let w = match insn with Insn.Mov8 _ -> 1 | _ -> 8 in
          let v = value_of pc ~prologue w src in
          match dst with
          | Insn.Reg r ->
              set_reg r v;
              step next (fuel - 1)
          | Insn.Mem m ->
              mem_write pc ~prologue w (addr_of pc m) v;
              step next (fuel - 1)
          | Insn.Imm _ -> fail pc "store to immediate")
      | Insn.Lea (r, m) ->
          let a = addr_of pc m in
          let a =
            match a with
            | X_sp eff -> (
                match Hashtbl.find_opt irslot_at eff with
                | Some i when eff >= 0 && eff < frame_size && r <> Insn.RSP && r <> Insn.RBP
                  ->
                    X_slot (i, 0)
                | _ -> a)
            | _ -> a
          in
          set_reg r a;
          step next (fuel - 1)
      | Insn.Push op ->
          let v = value_of pc ~prologue 8 op in
          let d = get_delta pc - 8 in
          st.regs.(ri Insn.RSP) <- X_sp d;
          mem_write pc ~prologue 8 (X_sp d) v;
          step next (fuel - 1)
      | Insn.Pop r ->
          let d = get_delta pc in
          let v = mem_read pc ~prologue 8 (X_sp d) in
          set_reg r v;
          st.regs.(ri Insn.RSP) <- X_sp (d + 8);
          step next (fuel - 1)
      | Insn.Binop (op, r, o) ->
          let rhs = value_of pc ~prologue 8 o in
          set_reg r (mk_binop (ir_of_mop op) st.regs.(ri r) rhs);
          step next (fuel - 1)
      | Insn.Div (r, o) ->
          set_reg r (X_binop (Ir.Div, st.regs.(ri r), value_of pc ~prologue 8 o));
          step next (fuel - 1)
      | Insn.Rem (r, o) ->
          set_reg r (X_binop (Ir.Rem, st.regs.(ri r), value_of pc ~prologue 8 o));
          step next (fuel - 1)
      | Insn.Neg r ->
          set_reg r (X_binop (Ir.Sub, X_const 0, st.regs.(ri r)));
          step next (fuel - 1)
      | Insn.Cmp (a, bb) ->
          st.flags <- Some (value_of pc ~prologue 8 a, value_of pc ~prologue 8 bb);
          step next (fuel - 1)
      | Insn.Setcc (c, r) -> (
          match st.flags with
          | Some (x, y) ->
              set_reg r (X_cmp (ir_of_cond c, x, y));
              step next (fuel - 1)
          | None -> fail pc "setcc with undefined flags")
      | Insn.Jcc (_, Insn.TAbs t) -> (
          (* Post-return check normalization: a conditional over an
             immediately following trap is Section 7.3 camouflage. *)
          match Image.code_at img next with
          | Some (Insn.Trap, tlen) when t = next + tlen -> step t (fuel - 1)
          | _ -> (
              match b.Ir.term with
              | Ir.Cond_br (c, l1, _) ->
                  if !cond_done then fail pc "second conditional branch in block";
                  (match st.flags with
                  | Some (x, y) ->
                      let expected = eval_final c in
                      if x <> expected || y <> X_const 0 then
                        fail pc "branch tests (%s vs %s), IR tests (%s vs 0)" (pp_x x)
                          (pp_x y) (pp_x expected)
                  | None -> fail pc "conditional branch with undefined flags");
                  (match insn with
                  | Insn.Jcc (Insn.Ne, _) -> ()
                  | _ -> fail pc "conditional branch with unexpected condition");
                  if t <> label_addr l1 then
                    fail pc "true-branch goes to 0x%x, IR says L%d" t l1;
                  cond_done := true;
                  step next (fuel - 1)
              | _ -> fail pc "conditional jump where IR has no conditional branch"))
      | Insn.Jmp (Insn.TAbs t) ->
          if all_traps_until next t then (* prolog trap sled *) step t (fuel - 1)
          else begin
            match b.Ir.term with
            | Ir.Br l ->
                if t <> label_addr l then fail pc "jumps to 0x%x, IR branches to L%d" t l;
                finish_branch pc
            | Ir.Cond_br (_, _, l2) ->
                if not !cond_done then fail pc "conditional branch never tested";
                if t <> label_addr l2 then
                  fail pc "else-branch goes to 0x%x, IR says L%d" t l2;
                finish_branch pc
            | Ir.Ret _ -> fail pc "jump where IR returns"
          end
      | Insn.Call (Insn.TAbs t) ->
          do_call pc (`Abs t);
          step next (fuel - 1)
      | Insn.Call_ind op ->
          do_call pc (`Val (value_of pc ~prologue 8 op));
          step next (fuel - 1)
      | Insn.Ret -> (
          match b.Ir.term with
          | Ir.Ret op -> finish_ret pc op
          | _ -> fail pc "ret where IR branches")
      | Insn.Vload (_, _) | Insn.Vload128 (_, _) | Insn.Vload512 (_, _) ->
          (* Vector batch loads read the BTRA call-site array; the values
             only ever land below the frame. *)
          step next (fuel - 1)
      | Insn.Vstore (m, _) | Insn.Vstore128 (m, _) | Insn.Vstore512 (m, _) -> (
          let bytes =
            match insn with
            | Insn.Vstore128 _ -> 16
            | Insn.Vstore _ -> 32
            | _ -> 64
          in
          match addr_of pc m with
          | X_sp eff when eff + bytes <= 0 -> step next (fuel - 1)
          | a -> fail pc "vector store to %s (not below-frame scratch)" (pp_x a))
      | Insn.Vzeroupper -> step next (fuel - 1)
      | Insn.Trap -> fail pc "unexpected trap on the legitimate path"
      | Insn.Jmp (Insn.TSym _) | Insn.Jcc (_, Insn.TSym _) | Insn.Call (Insn.TSym _) ->
          fail pc "unresolved branch target"
      | Insn.Jmp_ind _ -> fail pc "indirect jump is never emitted"
      | Insn.Halt -> fail pc "halt inside a compiled function"
    end
  in
  step start block_fuel

let validate_func ~img ~(meta : Emit.tvmeta) (f : Ir.func) =
  let fi =
    Array.find_opt (fun i -> i.Image.fname = f.Ir.name) img.Image.funcs
  in
  match fi with
  | None ->
      ( [ { tv_func = f.Ir.name; tv_block = None; tv_addr = None;
            tv_what = "function not present in image" } ],
        0 )
  | Some fi ->
      let label_addr l =
        Image.symbol img (Printf.sprintf "%s.L%d" f.Ir.name l)
      in
      let lv = Dataflow.Liveness.compute f in
      let blocks = Array.of_list f.Ir.blocks in
      let n = Array.length blocks in
      let findings = ref [] in
      let checked = ref 0 in
      (if Array.length meta.Emit.tv_assign <> f.Ir.nvars then
         findings :=
           { tv_func = f.Ir.name; tv_block = None; tv_addr = None;
             tv_what = "metadata does not cover all vars" }
           :: !findings
       else
         let body_start = if n > 0 then label_addr blocks.(0).Ir.lbl else fi.Image.entry in
         Array.iteri
           (fun bi b ->
             incr checked;
             let start = if bi = 0 then fi.Image.entry else label_addr b.Ir.lbl in
             let end_addr =
               if bi = n - 1 then fi.Image.entry + fi.Image.code_len
               else label_addr blocks.(bi + 1).Ir.lbl
             in
             let events, env =
               build_expected ~sym:(fun s -> Image.symbol img s) f b
             in
             try
               check_block ~img ~meta ~f ~events ~env
                 ~live_in:lv.Dataflow.Liveness.live_in.(bi)
                 ~live_out:lv.Dataflow.Liveness.live_out.(bi)
                 ~label_addr ~start ~end_addr ~body_start b
             with
             | Mismatch (pc, what) ->
                 findings :=
                   { tv_func = f.Ir.name; tv_block = Some b.Ir.lbl;
                     tv_addr = Some pc; tv_what = what }
                   :: !findings
             | Not_found ->
                 findings :=
                   { tv_func = f.Ir.name; tv_block = Some b.Ir.lbl; tv_addr = None;
                     tv_what = "missing symbol during validation" }
                   :: !findings)
           blocks);
      (List.rev !findings, !checked)

let validate ~img ~meta (p : Ir.program) =
  let findings = ref [] in
  let funcs = ref 0 in
  let blocks = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      incr funcs;
      match List.assoc_opt f.Ir.name meta with
      | None ->
          findings :=
            { tv_func = f.Ir.name; tv_block = None; tv_addr = None;
              tv_what = "no lowering metadata for function" }
            :: !findings
      | Some m ->
          let fs, nb = validate_func ~img ~meta:m f in
          blocks := !blocks + nb;
          findings := List.rev_append fs !findings)
    p.Ir.funcs;
  { findings = List.rev !findings; funcs = !funcs; blocks = !blocks }

let validate_config ?(seed = 1) cfg (p : Ir.program) =
  let img, meta, p' = R2c_core.Pipeline.compile_with_meta ~seed cfg p in
  validate ~img ~meta p'
