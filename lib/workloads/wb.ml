module B = Builder

let for_ fb ~from ~below body =
  let ctr = B.slot fb 8 in
  B.store fb (B.slot_addr fb ctr) 0 from;
  let header = B.new_block fb and bodyl = B.new_block fb and fin = B.new_block fb in
  B.br fb header;
  B.switch_to fb header;
  let i = B.load fb (B.slot_addr fb ctr) 0 in
  let c = B.cmp fb Ir.Lt i below in
  B.cond_br fb c bodyl fin;
  B.switch_to fb bodyl;
  let i' = B.load fb (B.slot_addr fb ctr) 0 in
  body i';
  let i2 = B.load fb (B.slot_addr fb ctr) 0 in
  let inext = B.binop fb Ir.Add i2 (Ir.Const 1) in
  B.store fb (B.slot_addr fb ctr) 0 inext;
  B.br fb header;
  B.switch_to fb fin

let if_ fb c then_ else_ =
  let yes = B.new_block fb and no = B.new_block fb and join = B.new_block fb in
  B.cond_br fb c yes no;
  B.switch_to fb yes;
  then_ ();
  B.br fb join;
  B.switch_to fb no;
  else_ ();
  B.br fb join;
  B.switch_to fb join

(* A 61-bit multiplicative LCG: cheap, deterministic, and identical under
   the reference interpreter and the machine (63-bit OCaml ints). *)
let lcg fb g =
  let s = B.load fb (Ir.Global g) 0 in
  let m = B.binop fb Ir.Mul s (Ir.Const 2862933555777941757) in
  let a = B.binop fb Ir.Add m (Ir.Const 1013904223) in
  let v = B.binop fb Ir.And a (Ir.Const 0x1fff_ffff_ffff_ffff) in
  B.store fb (Ir.Global g) 0 v;
  v

let lcg_global name = { Ir.gname = name; gsize = 8; ginit = [ Ir.Word 0x9e3779b9 ] }
