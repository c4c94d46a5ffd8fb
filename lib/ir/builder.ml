type block_acc = {
  lbl : Ir.label;
  mutable body_rev : Ir.instr list;
  mutable term : Ir.term option;
}

type t = {
  name : string;
  nparams : int;
  mutable next_var : int;
  mutable slots_rev : int list;
  mutable nslots : int;
  mutable blocks : block_acc list;  (* creation order, reversed *)
  mutable current : block_acc;
  mutable next_label : int;
}

let func name ~nparams =
  let entry = { lbl = 0; body_rev = []; term = None } in
  {
    name;
    nparams;
    next_var = nparams;
    slots_rev = [];
    nslots = 0;
    blocks = [ entry ];
    current = entry;
    next_label = 1;
  }

let param i = Ir.Var i

let fresh t =
  let v = t.next_var in
  t.next_var <- v + 1;
  v

let slot t size =
  let i = t.nslots in
  t.slots_rev <- size :: t.slots_rev;
  t.nslots <- i + 1;
  i

let new_block t =
  let lbl = t.next_label in
  t.next_label <- lbl + 1;
  t.blocks <- { lbl; body_rev = []; term = None } :: t.blocks;
  lbl

let switch_to t lbl =
  match List.find_opt (fun b -> b.lbl = lbl) t.blocks with
  | Some b -> t.current <- b
  | None -> invalid_arg (Printf.sprintf "Builder.switch_to: unknown label %d" lbl)

let emit t i =
  if t.current.term <> None then
    invalid_arg
      (Printf.sprintf "Builder: emitting into terminated block %d of %s" t.current.lbl t.name);
  t.current.body_rev <- i :: t.current.body_rev

let terminate t term =
  if t.current.term <> None then
    invalid_arg
      (Printf.sprintf "Builder: block %d of %s already terminated" t.current.lbl t.name);
  t.current.term <- Some term

let mov t op =
  let v = fresh t in
  emit t (Ir.Mov (v, op));
  Ir.Var v

let binop t op a b =
  let v = fresh t in
  emit t (Ir.Binop (v, op, a, b));
  Ir.Var v

let cmp t c a b =
  let v = fresh t in
  emit t (Ir.Cmp (v, c, a, b));
  Ir.Var v

let load t base off =
  let v = fresh t in
  emit t (Ir.Load (v, base, off));
  Ir.Var v

let load8 t base off =
  let v = fresh t in
  emit t (Ir.Load8 (v, base, off));
  Ir.Var v

let store t base off value = emit t (Ir.Store (base, off, value))

let store8 t base off value = emit t (Ir.Store8 (base, off, value))

let slot_addr t i =
  let v = fresh t in
  emit t (Ir.Slot_addr (v, i));
  Ir.Var v

let call t callee args =
  let v = fresh t in
  emit t (Ir.Call (Some v, callee, args));
  Ir.Var v

let call_void t callee args = emit t (Ir.Call (None, callee, args))

let ret t op = terminate t (Ir.Ret op)
let br t lbl = terminate t (Ir.Br lbl)
let cond_br t c l1 l2 = terminate t (Ir.Cond_br (c, l1, l2))

let for_ t ~from ~below body =
  let ctr = slot t 8 in
  store t (slot_addr t ctr) 0 from;
  let header = new_block t and bodyl = new_block t and fin = new_block t in
  br t header;
  switch_to t header;
  let i = load t (slot_addr t ctr) 0 in
  let c = cmp t Ir.Lt i below in
  cond_br t c bodyl fin;
  switch_to t bodyl;
  let i' = load t (slot_addr t ctr) 0 in
  body i';
  let i2 = load t (slot_addr t ctr) 0 in
  let inext = binop t Ir.Add i2 (Ir.Const 1) in
  store t (slot_addr t ctr) 0 inext;
  br t header;
  switch_to t fin

let if_ t c then_ else_ =
  let yes = new_block t and no = new_block t and join = new_block t in
  cond_br t c yes no;
  switch_to t yes;
  then_ ();
  br t join;
  switch_to t no;
  else_ ();
  br t join;
  switch_to t join

let finish t =
  let blocks =
    List.rev_map
      (fun b ->
        match b.term with
        | Some term -> { Ir.lbl = b.lbl; body = List.rev b.body_rev; term }
        | None ->
            invalid_arg
              (Printf.sprintf "Builder.finish: block %d of %s not terminated" b.lbl t.name))
      t.blocks
  in
  {
    Ir.name = t.name;
    nparams = t.nparams;
    nvars = t.next_var;
    slots = Array.of_list (List.rev t.slots_rev);
    blocks;
  }

let global gname ~size ginit =
  let footprint = Ir.init_footprint ginit in
  if footprint > size then
    invalid_arg (Printf.sprintf "Builder.global %s: initialiser exceeds size" gname);
  { Ir.gname; gsize = size; ginit }

let program ~main funcs globals = { Ir.funcs; globals; main }
