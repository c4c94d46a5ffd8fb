module B = Builder

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
