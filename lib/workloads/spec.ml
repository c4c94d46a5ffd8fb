module B = Builder

type benchmark = {
  name : string;
  program : Ir.program;
  inputs : Ir.program list;
  paper_calls : float;
  cpp : bool;
}

let sc scale n = max 1 (int_of_float (float_of_int n *. scale))

(* Real SPEC programs hold working sets of tens of MB; ours must too or
   one-time allocations (BTDP guard pages) would dominate the resident-set
   comparison of Section 6.2.5. The block is held for the program's
   lifetime. *)
let working_set fb pages =
  Builder.call_void fb (Ir.Builtin "malloc_pages") [ Ir.Const pages ]

(* ------------------------------------------------------------------ *)
(* perlbench: an interpreter loop — hash-table ops and string reversal
   dispatched over a bytecode stream. Call-heavy, branchy.             *)
(* ------------------------------------------------------------------ *)
let perlbench scale =
  let tbl_size = 256 in
  let hash_insert = B.func "hash_insert" ~nparams:1 in
  let k = B.param 0 in
  let k1m = B.binop hash_insert Ir.Mul k (Ir.Const 0x9e3779b9) in
  let k1 = B.binop hash_insert Ir.And k1m (Ir.Const 0x3fff_ffff) in
  let k2 = B.binop hash_insert Ir.Xor k1 (B.binop hash_insert Ir.Shr k1 (Ir.Const 16)) in
  let h = B.binop hash_insert Ir.Rem k2 (Ir.Const tbl_size) in
  let off = B.binop hash_insert Ir.Mul h (Ir.Const 8) in
  let slot = B.binop hash_insert Ir.Add (Ir.Global "pl_table") off in
  let prev = B.load hash_insert slot 0 in
  let mixed = B.binop hash_insert Ir.Xor prev k in
  B.store hash_insert slot 0 mixed;
  (* second probe *)
  let h2 = B.binop hash_insert Ir.Rem k1 (Ir.Const tbl_size) in
  let off2 = B.binop hash_insert Ir.Mul h2 (Ir.Const 8) in
  let slot2 = B.binop hash_insert Ir.Add (Ir.Global "pl_table") off2 in
  let p2 = B.load hash_insert slot2 0 in
  B.store hash_insert slot2 0 (B.binop hash_insert Ir.Add p2 (Ir.Const 1));
  B.ret hash_insert (Some h);
  let hash_lookup = B.func "hash_lookup" ~nparams:1 in
  let k = B.param 0 in
  let k1m = B.binop hash_lookup Ir.Mul k (Ir.Const 0x9e3779b9) in
  let k1 = B.binop hash_lookup Ir.And k1m (Ir.Const 0x3fff_ffff) in
  let k2 = B.binop hash_lookup Ir.Xor k1 (B.binop hash_lookup Ir.Shr k1 (Ir.Const 16)) in
  let h = B.binop hash_lookup Ir.Rem k2 (Ir.Const tbl_size) in
  let off = B.binop hash_lookup Ir.Mul h (Ir.Const 8) in
  let slot = B.binop hash_lookup Ir.Add (Ir.Global "pl_table") off in
  let v = B.load hash_lookup slot 0 in
  let v2 = B.binop hash_lookup Ir.Xor v (B.binop hash_lookup Ir.Shr v (Ir.Const 7)) in
  let v3 = B.binop hash_lookup Ir.And v2 (Ir.Const 0xffffff) in
  B.ret hash_lookup (Some v3);
  let str_step = B.func "str_step" ~nparams:1 in
  (* Mix four bytes of the working string (a short memmove-ish body). *)
  let i = B.binop str_step Ir.Rem (B.param 0) (Ir.Const 60) in
  let addr = B.binop str_step Ir.Add (Ir.Global "pl_str") i in
  let acc = ref (Ir.Const 0) in
  for k = 0 to 3 do
    let b = B.load8 str_step addr k in
    let rot = B.binop str_step Ir.Shl b (Ir.Const k) in
    let b2 = B.binop str_step Ir.Xor b (Ir.Const (0x5a + k)) in
    B.store8 str_step addr k b2;
    acc := B.binop str_step Ir.Add !acc rot
  done;
  let out = B.binop str_step Ir.And !acc (Ir.Const 0xff) in
  B.ret str_step (Some out);
  let interp = B.func "interp" ~nparams:1 in
  let acc = B.slot interp 8 in
  B.store interp (B.slot_addr interp acc) 0 (Ir.Const 0);
  B.for_ interp ~from:(Ir.Const 0) ~below:(B.param 0) (fun _ ->
      let r = Wb.lcg interp "pl_rng" in
      let op = B.binop interp Ir.Rem r (Ir.Const 4) in
      let v = B.slot_addr interp acc in
      let cur = B.load interp v 0 in
      B.if_ interp
        (B.cmp interp Ir.Eq op (Ir.Const 0))
        (fun () ->
          let x = B.call interp (Ir.Direct "hash_insert") [ r ] in
          B.store interp v 0 (B.binop interp Ir.Add cur x))
        (fun () ->
          B.if_ interp
            (B.cmp interp Ir.Eq op (Ir.Const 1))
            (fun () ->
              let x = B.call interp (Ir.Direct "hash_lookup") [ r ] in
              B.store interp v 0 (B.binop interp Ir.Xor cur x))
            (fun () ->
              let x = B.call interp (Ir.Direct "str_step") [ r ] in
              B.store interp v 0 (B.binop interp Ir.Add cur x))));
  B.ret interp (Some (B.load interp (B.slot_addr interp acc) 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 2200;
  let r = B.call main (Ir.Direct "interp") [ Ir.Const (sc scale 2400) ] in
  B.call_void main (Ir.Builtin "print_int") [ r ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish hash_insert; B.finish hash_lookup; B.finish str_step; B.finish interp;
      B.finish main ]
    [
      { Ir.gname = "pl_table"; gsize = 8 * tbl_size; ginit = [] };
      { Ir.gname = "pl_str"; gsize = 64; ginit = [ Ir.Str (String.make 64 'x') ] };
      Wb.lcg_global "pl_rng";
    ]

(* ------------------------------------------------------------------ *)
(* gcc: build random expression trees on the heap, evaluate them
   recursively, release them. Allocation + recursion heavy.            *)
(* ------------------------------------------------------------------ *)
let gcc scale =
  (* node: [0]=op (0=leaf) [8]=left/value [16]=right *)
  let build = B.func "tree_build" ~nparams:1 in
  let depth = B.param 0 in
  let node = B.call build (Ir.Builtin "malloc") [ Ir.Const 24 ] in
  B.if_ build
    (B.cmp build Ir.Le depth (Ir.Const 0))
    (fun () ->
      B.store build node 0 (Ir.Const 0);
      let r = Wb.lcg build "gc_rng" in
      let r2 = B.binop build Ir.Xor r (B.binop build Ir.Shr r (Ir.Const 13)) in
      let r3 = B.binop build Ir.Mul r2 (Ir.Const 0x2545f491) in
      let v = B.binop build Ir.Rem r3 (Ir.Const 1000) in
      B.store build node 8 v;
      B.store build node 16 (B.binop build Ir.And r (Ir.Const 0xff)))
    (fun () ->
      let r = Wb.lcg build "gc_rng" in
      let op = B.binop build Ir.Rem r (Ir.Const 3) in
      let op1 = B.binop build Ir.Add op (Ir.Const 1) in
      B.store build node 0 op1;
      let d' = B.binop build Ir.Sub depth (Ir.Const 1) in
      let l = B.call build (Ir.Direct "tree_build") [ d' ] in
      B.store build node 8 l;
      let rr = B.call build (Ir.Direct "tree_build") [ d' ] in
      B.store build node 16 rr);
  B.ret build (Some node);
  let eval = B.func "tree_eval" ~nparams:1 in
  let node = B.param 0 in
  let op = B.load eval node 0 in
  let result = B.slot eval 8 in
  B.if_ eval
    (B.cmp eval Ir.Eq op (Ir.Const 0))
    (fun () -> B.store eval (B.slot_addr eval result) 0 (B.load eval node 8))
    (fun () ->
      let l = B.load eval node 8 in
      let r = B.load eval node 16 in
      let lv = B.call eval (Ir.Direct "tree_eval") [ l ] in
      let rv = B.call eval (Ir.Direct "tree_eval") [ r ] in
      B.if_ eval
        (B.cmp eval Ir.Eq op (Ir.Const 1))
        (fun () -> B.store eval (B.slot_addr eval result) 0 (B.binop eval Ir.Add lv rv))
        (fun () ->
          B.if_ eval
            (B.cmp eval Ir.Eq op (Ir.Const 2))
            (fun () ->
              B.store eval (B.slot_addr eval result) 0 (B.binop eval Ir.Sub lv rv))
            (fun () ->
              B.store eval (B.slot_addr eval result) 0 (B.binop eval Ir.Xor lv rv))));
  (* Constant folding / canonicalisation flavour: mix the result through a
     few rounds, as a compiler pass would inspect node attributes. *)
  let v0 = B.load eval (B.slot_addr eval result) 0 in
  let m1 = B.binop eval Ir.Mul v0 (Ir.Const 31) in
  let m2 = B.binop eval Ir.Add m1 (B.binop eval Ir.Shr v0 (Ir.Const 3)) in
  let m3 = B.binop eval Ir.Xor m2 (B.binop eval Ir.Shl v0 (Ir.Const 2)) in
  let m4 = B.binop eval Ir.And m3 (Ir.Const 0xffff_ffff) in
  B.store eval (B.slot_addr eval result) 0 m4;
  B.ret eval (Some (B.load eval (B.slot_addr eval result) 0));
  let release = B.func "tree_free" ~nparams:1 in
  let node = B.param 0 in
  let op = B.load release node 0 in
  B.if_ release
    (B.cmp release Ir.Ne op (Ir.Const 0))
    (fun () ->
      B.call_void release (Ir.Direct "tree_free") [ B.load release node 8 ];
      B.call_void release (Ir.Direct "tree_free") [ B.load release node 16 ])
    (fun () -> ());
  B.call_void release (Ir.Builtin "free") [ node ];
  B.ret release (Some (Ir.Const 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 3000;
  let acc = B.slot main 8 in
  B.store main (B.slot_addr main acc) 0 (Ir.Const 0);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 12)) (fun _ ->
      let t = B.call main (Ir.Direct "tree_build") [ Ir.Const 4 ] in
      let v = B.call main (Ir.Direct "tree_eval") [ t ] in
      B.call_void main (Ir.Direct "tree_free") [ t ];
      let cur = B.load main (B.slot_addr main acc) 0 in
      B.store main (B.slot_addr main acc) 0 (B.binop main Ir.Add cur v));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main acc) 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish build; B.finish eval; B.finish release; B.finish main ]
    [ Wb.lcg_global "gc_rng" ]

(* ------------------------------------------------------------------ *)
(* mcf: network-simplex flavour — sweep arc arrays, compute reduced
   costs in a helper, occasionally update the spanning-tree array.
   Huge call count over small bodies plus heavy loads.                 *)
(* ------------------------------------------------------------------ *)
let mcf scale =
  let arcs = 512 in
  let reduced_cost = B.func "reduced_cost" ~nparams:1 in
  let a = B.param 0 in
  let off = B.binop reduced_cost Ir.Mul a (Ir.Const 8) in
  let cost = B.load reduced_cost (B.binop reduced_cost Ir.Add (Ir.Global "mc_cost") off) 0 in
  let pot = B.load reduced_cost (B.binop reduced_cost Ir.Add (Ir.Global "mc_pot") off) 0 in
  B.ret reduced_cost (Some (B.binop reduced_cost Ir.Sub cost pot));
  let pivot = B.func "pivot" ~nparams:2 in
  let a = B.param 0 and rc = B.param 1 in
  let off = B.binop pivot Ir.Mul a (Ir.Const 8) in
  let slot = B.binop pivot Ir.Add (Ir.Global "mc_pot") off in
  let p = B.load pivot slot 0 in
  B.store pivot slot 0 (B.binop pivot Ir.Add p rc);
  B.ret pivot (Some (Ir.Const 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 4000;
  let acc = B.slot main 8 in
  B.store main (B.slot_addr main acc) 0 (Ir.Const 0);
  (* Seed the cost array. *)
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const arcs) (fun i ->
      let off = B.binop main Ir.Mul i (Ir.Const 8) in
      let v = B.binop main Ir.Mul i (Ir.Const 37) in
      let v2 = B.binop main Ir.Rem v (Ir.Const 1009) in
      B.store main (B.binop main Ir.Add (Ir.Global "mc_cost") off) 0 v2);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 19)) (fun _ ->
      B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const arcs) (fun a ->
          let rc = B.call main (Ir.Direct "reduced_cost") [ a ] in
          B.if_ main
            (B.cmp main Ir.Gt rc (Ir.Const 500))
            (fun () -> B.call_void main (Ir.Direct "pivot") [ a; rc ])
            (fun () ->
              let cur = B.load main (B.slot_addr main acc) 0 in
              B.store main (B.slot_addr main acc) 0 (B.binop main Ir.Add cur rc))));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main acc) 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish reduced_cost; B.finish pivot; B.finish main ]
    [
      { Ir.gname = "mc_cost"; gsize = 8 * arcs; ginit = [] };
      { Ir.gname = "mc_pot"; gsize = 8 * arcs; ginit = [] };
    ]

(* ------------------------------------------------------------------ *)
(* lbm: a lattice stencil — long arithmetic loops over a grid, almost
   no function calls (Table 2's outlier).                              *)
(* ------------------------------------------------------------------ *)
let lbm scale =
  let cells = 1024 in
  let main = B.func "main" ~nparams:0 in
  working_set main 3500;
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const cells) (fun i ->
      let off = B.binop main Ir.Mul i (Ir.Const 8) in
      let v = B.binop main Ir.Mul i (Ir.Const 17) in
      B.store main (B.binop main Ir.Add (Ir.Global "lb_grid") off) 0 v);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 8)) (fun _ ->
      B.for_ main ~from:(Ir.Const 1) ~below:(Ir.Const (cells - 1)) (fun i ->
          let off = B.binop main Ir.Mul i (Ir.Const 8) in
          let base = B.binop main Ir.Add (Ir.Global "lb_grid") off in
          let left = B.load main base (-8) in
          let mid = B.load main base 0 in
          let right = B.load main base 8 in
          let s = B.binop main Ir.Add left right in
          let s2 = B.binop main Ir.Add s mid in
          let s3 = B.binop main Ir.Add s2 mid in
          let avg = B.binop main Ir.Sar s3 (Ir.Const 2) in
          let relaxed = B.binop main Ir.Add avg (Ir.Const 1) in
          B.store main (B.binop main Ir.Add (Ir.Global "lb_next") off) 0 relaxed);
      B.for_ main ~from:(Ir.Const 1) ~below:(Ir.Const (cells - 1)) (fun i ->
          let off = B.binop main Ir.Mul i (Ir.Const 8) in
          let v = B.load main (B.binop main Ir.Add (Ir.Global "lb_next") off) 0 in
          B.store main (B.binop main Ir.Add (Ir.Global "lb_grid") off) 0 v));
  let chk = B.load main (Ir.Global "lb_grid") (8 * 500) in
  B.call_void main (Ir.Builtin "print_int") [ chk ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main" [ B.finish main ]
    [
      { Ir.gname = "lb_grid"; gsize = 8 * cells; ginit = [] };
      { Ir.gname = "lb_next"; gsize = 8 * cells; ginit = [] };
    ]

(* ------------------------------------------------------------------ *)
(* omnetpp: a discrete-event simulator — priority queue of events,
   virtual dispatch to module handlers that schedule more events. The
   most call-dense C++ pattern in the suite.                           *)
(* ------------------------------------------------------------------ *)
let omnetpp scale =
  (* Event queue: ring buffer of (time, module, payload) triples. *)
  let qsize = 512 in
  let schedule = B.func "ev_schedule" ~nparams:2 in
  let m = B.param 0 and payload = B.param 1 in
  let tail = B.load schedule (Ir.Global "om_tail") 0 in
  let idx = B.binop schedule Ir.Rem tail (Ir.Const qsize) in
  let off = B.binop schedule Ir.Mul idx (Ir.Const 16) in
  let base = B.binop schedule Ir.Add (Ir.Global "om_queue") off in
  B.store schedule base 0 m;
  B.store schedule base 8 payload;
  B.store schedule (Ir.Global "om_tail") 0 (B.binop schedule Ir.Add tail (Ir.Const 1));
  B.ret schedule (Some (Ir.Const 0));
  let mk_handler name transform reschedule =
    let fb = B.func name ~nparams:1 in
    let p = B.param 0 in
    let v = transform fb p in
    (* Per-module statistics: mean/var style accumulation. *)
    let stat = B.load fb (Ir.Global "om_stat") 0 in
    let sq = B.binop fb Ir.Mul v v in
    let sq2 = B.binop fb Ir.And sq (Ir.Const 0xffff) in
    let hist = B.binop fb Ir.And v (Ir.Const 15) in
    let hoff = B.binop fb Ir.Mul hist (Ir.Const 8) in
    let hslot = B.binop fb Ir.Add (Ir.Global "om_hist") hoff in
    let hv = B.load fb hslot 0 in
    B.store fb hslot 0 (B.binop fb Ir.Add hv (Ir.Const 1));
    let stat2 = B.binop fb Ir.Add stat sq2 in
    B.store fb (Ir.Global "om_stat") 0 (B.binop fb Ir.Sub stat2 sq2);
    B.store fb (Ir.Global "om_stat") 0 (B.binop fb Ir.Add stat v);
    if reschedule then begin
      let nm = B.binop fb Ir.Rem v (Ir.Const 4) in
      B.call_void fb (Ir.Direct "ev_schedule") [ nm; v ]
    end;
    B.ret fb (Some v);
    B.finish fb
  in
  let h0 = mk_handler "mod_source" (fun fb p -> B.binop fb Ir.Add p (Ir.Const 3)) true in
  let h1 = mk_handler "mod_queue" (fun fb p -> B.binop fb Ir.Xor p (Ir.Const 0x55)) true in
  let h2 = mk_handler "mod_delay" (fun fb p -> B.binop fb Ir.Shr p (Ir.Const 1)) false in
  let h3 = mk_handler "mod_sink" (fun fb p -> B.binop fb Ir.And p (Ir.Const 0xffff)) false in
  let main = B.func "main" ~nparams:0 in
  working_set main 2600;
  (* Prime the queue. *)
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const 16) (fun i ->
      let m = B.binop main Ir.Rem i (Ir.Const 4) in
      B.call_void main (Ir.Direct "ev_schedule") [ m; i ]);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 5300)) (fun _ ->
      let head = B.load main (Ir.Global "om_head") 0 in
      let tail = B.load main (Ir.Global "om_tail") 0 in
      B.if_ main
        (B.cmp main Ir.Lt head tail)
        (fun () ->
          let idx = B.binop main Ir.Rem head (Ir.Const qsize) in
          let off = B.binop main Ir.Mul idx (Ir.Const 16) in
          let base = B.binop main Ir.Add (Ir.Global "om_queue") off in
          let m = B.load main base 0 in
          let payload = B.load main base 8 in
          B.store main (Ir.Global "om_head") 0 (B.binop main Ir.Add head (Ir.Const 1));
          (* Virtual dispatch through the vtable in the data section. *)
          let voff = B.binop main Ir.Mul m (Ir.Const 8) in
          let fp = B.load main (B.binop main Ir.Add (Ir.Global "om_vtable") voff) 0 in
          B.call_void main (Ir.Indirect fp) [ payload ])
        (fun () ->
          (* Queue drained: reprime. *)
          B.call_void main (Ir.Direct "ev_schedule") [ Ir.Const 0; Ir.Const 7 ]));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "om_stat") 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish schedule; h0; h1; h2; h3; B.finish main ]
    [
      { Ir.gname = "om_queue"; gsize = 16 * qsize; ginit = [] };
      { Ir.gname = "om_head"; gsize = 8; ginit = [] };
      { Ir.gname = "om_tail"; gsize = 8; ginit = [] };
      { Ir.gname = "om_stat"; gsize = 8; ginit = [] };
      { Ir.gname = "om_hist"; gsize = 8 * 16; ginit = [] };
      {
        Ir.gname = "om_vtable";
        gsize = 32;
        ginit =
          [ Ir.Sym_addr "mod_source"; Ir.Sym_addr "mod_queue"; Ir.Sym_addr "mod_delay";
            Ir.Sym_addr "mod_sink" ];
      };
    ]

(* ------------------------------------------------------------------ *)
(* xalancbmk: XML-ish transformation — scan a byte buffer for tags,
   intern names in a hash table, count elements. Byte loads plus
   frequent small calls.                                               *)
(* ------------------------------------------------------------------ *)
let xalancbmk scale =
  let doc_len = 256 in
  let intern = B.func "intern" ~nparams:1 in
  let h = B.binop intern Ir.Rem (B.param 0) (Ir.Const 128) in
  let off = B.binop intern Ir.Mul h (Ir.Const 8) in
  let slot = B.binop intern Ir.Add (Ir.Global "xa_names") off in
  let old = B.load intern slot 0 in
  B.store intern slot 0 (B.binop intern Ir.Add old (Ir.Const 1));
  B.ret intern (Some h);
  let emit = B.func "emit" ~nparams:2 in
  let count = B.load emit (Ir.Global "xa_out") 0 in
  let mixed = B.binop emit Ir.Xor (B.param 0) (B.param 1) in
  let c2 = B.binop emit Ir.Add count mixed in
  B.store emit (Ir.Global "xa_out") 0 c2;
  B.ret emit (Some c2);
  let transform = B.func "transform" ~nparams:1 in
  let hash = B.slot transform 8 in
  B.store transform (B.slot_addr transform hash) 0 (Ir.Const 0);
  B.for_ transform ~from:(Ir.Const 0) ~below:(Ir.Const doc_len) (fun i ->
      let addr = B.binop transform Ir.Add (Ir.Global "xa_doc") i in
      let c = B.load8 transform addr 0 in
      B.if_ transform
        (B.cmp transform Ir.Eq c (Ir.Const (Char.code '<')))
        (fun () ->
          let hv = B.load transform (B.slot_addr transform hash) 0 in
          let id = B.call transform (Ir.Direct "intern") [ hv ] in
          B.call_void transform (Ir.Direct "emit") [ id; B.param 0 ];
          B.store transform (B.slot_addr transform hash) 0 (Ir.Const 0))
        (fun () ->
          let hv = B.load transform (B.slot_addr transform hash) 0 in
          let h17 = B.binop transform Ir.Mul hv (Ir.Const 17) in
          let h2 = B.binop transform Ir.Add h17 c in
          let h3 = B.binop transform Ir.And h2 (Ir.Const 0xffffff) in
          B.store transform (B.slot_addr transform hash) 0 h3));
  B.ret transform (Some (Ir.Const 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 1800;
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 63)) (fun pass ->
      B.call_void main (Ir.Direct "transform") [ pass ]);
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "xa_out") 0 ];
  B.ret main (Some (Ir.Const 0));
  let doc =
    let b = Buffer.create doc_len in
    for i = 0 to doc_len - 1 do
      Buffer.add_char b (if i mod 11 = 0 then '<' else Char.chr (97 + (i mod 26)))
    done;
    Buffer.contents b
  in
  B.program ~main:"main"
    [ B.finish intern; B.finish emit; B.finish transform; B.finish main ]
    [
      { Ir.gname = "xa_doc"; gsize = doc_len; ginit = [ Ir.Str doc ] };
      { Ir.gname = "xa_names"; gsize = 8 * 128; ginit = [] };
      { Ir.gname = "xa_out"; gsize = 8; ginit = [] };
    ]

(* ------------------------------------------------------------------ *)
(* x264: motion estimation — SAD over blocks; few calls, dense byte
   arithmetic inside the called kernel.                                *)
(* ------------------------------------------------------------------ *)
let x264 scale =
  let frame = 4096 in
  let sad = B.func "sad_block" ~nparams:2 in
  let a = B.param 0 and b = B.param 1 in
  let acc = B.slot sad 8 in
  B.store sad (B.slot_addr sad acc) 0 (Ir.Const 0);
  B.for_ sad ~from:(Ir.Const 0) ~below:(Ir.Const 32) (fun i ->
      let pa = B.binop sad Ir.Add (Ir.Global "xv_ref") (B.binop sad Ir.Add a i) in
      let pb = B.binop sad Ir.Add (Ir.Global "xv_cur") (B.binop sad Ir.Add b i) in
      let va = B.load8 sad pa 0 in
      let vb = B.load8 sad pb 0 in
      let d = B.binop sad Ir.Sub va vb in
      let neg = B.binop sad Ir.Sub (Ir.Const 0) d in
      let m = B.slot_addr sad acc in
      B.if_ sad
        (B.cmp sad Ir.Lt d (Ir.Const 0))
        (fun () -> B.store sad m 0 (B.binop sad Ir.Add (B.load sad m 0) neg))
        (fun () -> B.store sad m 0 (B.binop sad Ir.Add (B.load sad m 0) d)));
  B.ret sad (Some (B.load sad (B.slot_addr sad acc) 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 2800;
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const frame) (fun i ->
      let v = B.binop main Ir.Mul i (Ir.Const 7) in
      let v2 = B.binop main Ir.And v (Ir.Const 0xff) in
      B.store8 main (B.binop main Ir.Add (Ir.Global "xv_ref") i) 0 v2;
      let w = B.binop main Ir.Mul i (Ir.Const 11) in
      let w2 = B.binop main Ir.And w (Ir.Const 0xff) in
      B.store8 main (B.binop main Ir.Add (Ir.Global "xv_cur") i) 0 w2);
  let best = B.slot main 8 in
  B.store main (B.slot_addr main best) 0 (Ir.Const 0);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 21)) (fun pass ->
      B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const 40) (fun blk ->
          let a = B.binop main Ir.Mul blk (Ir.Const 64) in
          let shift = B.binop main Ir.Rem pass (Ir.Const 32) in
          let b = B.binop main Ir.Add a shift in
          let s = B.call main (Ir.Direct "sad_block") [ a; b ] in
          let cur = B.load main (B.slot_addr main best) 0 in
          B.store main (B.slot_addr main best) 0 (B.binop main Ir.Add cur s)));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main best) 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main" [ B.finish sad; B.finish main ]
    [
      { Ir.gname = "xv_ref"; gsize = frame + 64; ginit = [] };
      { Ir.gname = "xv_cur"; gsize = frame + 64; ginit = [] };
    ]

(* ------------------------------------------------------------------ *)
(* deepsjeng: alpha-beta search — recursion with an evaluation call at
   the leaves and move generation per node.                            *)
(* ------------------------------------------------------------------ *)
let deepsjeng scale =
  let evaluate = B.func "evaluate" ~nparams:1 in
  let p = B.param 0 in
  let a = B.binop evaluate Ir.Mul p (Ir.Const 2654435761) in
  let acc = B.slot evaluate 8 in
  B.store evaluate (B.slot_addr evaluate acc) 0 (Ir.Const 0);
  (* Material + positional terms over an 8-entry piece table. *)
  B.for_ evaluate ~from:(Ir.Const 0) ~below:(Ir.Const 8) (fun k ->
      let shifted = B.binop evaluate Ir.Shr a k in
      let piece = B.binop evaluate Ir.And shifted (Ir.Const 7) in
      let off = B.binop evaluate Ir.Mul piece (Ir.Const 8) in
      let w = B.load evaluate (B.binop evaluate Ir.Add (Ir.Global "ds_piece") off) 0 in
      let cur = B.load evaluate (B.slot_addr evaluate acc) 0 in
      B.store evaluate (B.slot_addr evaluate acc) 0 (B.binop evaluate Ir.Add cur w));
  let b = B.binop evaluate Ir.And (B.load evaluate (B.slot_addr evaluate acc) 0) (Ir.Const 0xffff) in
  let c = B.binop evaluate Ir.Sub b (Ir.Const 0x8000) in
  B.ret evaluate (Some c);
  let search = B.func "search" ~nparams:2 in
  let pos = B.param 0 and depth = B.param 1 in
  let best = B.slot search 8 in
  B.if_ search
    (B.cmp search Ir.Le depth (Ir.Const 0))
    (fun () ->
      let v = B.call search (Ir.Direct "evaluate") [ pos ] in
      B.store search (B.slot_addr search best) 0 v)
    (fun () ->
      B.store search (B.slot_addr search best) 0 (Ir.Const (-1000000));
      B.for_ search ~from:(Ir.Const 0) ~below:(Ir.Const 4) (fun mv ->
          let p7 = B.binop search Ir.Mul pos (Ir.Const 7) in
          let child = B.binop search Ir.Add p7 mv in
          let child2 = B.binop search Ir.And child (Ir.Const 0xfffffff) in
          let d' = B.binop search Ir.Sub depth (Ir.Const 1) in
          let v = B.call search (Ir.Direct "search") [ child2; d' ] in
          let neg = B.binop search Ir.Sub (Ir.Const 0) v in
          let cur = B.load search (B.slot_addr search best) 0 in
          B.if_ search
            (B.cmp search Ir.Gt neg cur)
            (fun () -> B.store search (B.slot_addr search best) 0 neg)
            (fun () -> ())));
  B.ret search (Some (B.load search (B.slot_addr search best) 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 1500;
  let acc = B.slot main 8 in
  B.store main (B.slot_addr main acc) 0 (Ir.Const 0);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 5)) (fun i ->
      let v = B.call main (Ir.Direct "search") [ i; Ir.Const 4 ] in
      let cur = B.load main (B.slot_addr main acc) 0 in
      B.store main (B.slot_addr main acc) 0 (B.binop main Ir.Add cur v));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main acc) 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish evaluate; B.finish search; B.finish main ]
    [
      {
        Ir.gname = "ds_piece";
        gsize = 64;
        ginit = [ Ir.Word 100; Ir.Word 320; Ir.Word 330; Ir.Word 500;
                  Ir.Word 900; Ir.Word 20000; Ir.Word 0; Ir.Word 50 ];
      };
    ]

(* ------------------------------------------------------------------ *)
(* imagick: image processing — per-pixel loops with a row-op call per
   row and a 3-tap convolution.                                        *)
(* ------------------------------------------------------------------ *)
let imagick scale =
  let width = 32 in
  let height = 24 in
  let row_op = B.func "row_op" ~nparams:1 in
  let y = B.param 0 in
  let base = B.binop row_op Ir.Mul y (Ir.Const width) in
  B.for_ row_op ~from:(Ir.Const 1) ~below:(Ir.Const (width - 1)) (fun x ->
      let idx = B.binop row_op Ir.Add base x in
      let addr = B.binop row_op Ir.Add (Ir.Global "im_pix") idx in
      let l = B.load8 row_op addr (-1) in
      let m = B.load8 row_op addr 0 in
      let r = B.load8 row_op addr 1 in
      let s = B.binop row_op Ir.Add l r in
      let s2 = B.binop row_op Ir.Add s (B.binop row_op Ir.Mul m (Ir.Const 2)) in
      let avg = B.binop row_op Ir.Shr s2 (Ir.Const 2) in
      B.store8 row_op (B.binop row_op Ir.Add (Ir.Global "im_out") idx) 0 avg);
  B.ret row_op (Some (Ir.Const 0));
  let checksum = B.func "im_checksum" ~nparams:0 in
  let acc = B.slot checksum 8 in
  B.store checksum (B.slot_addr checksum acc) 0 (Ir.Const 0);
  B.for_ checksum ~from:(Ir.Const 0) ~below:(Ir.Const (width * height)) (fun i ->
      let v = B.load8 checksum (B.binop checksum Ir.Add (Ir.Global "im_out") i) 0 in
      let cur = B.load checksum (B.slot_addr checksum acc) 0 in
      B.store checksum (B.slot_addr checksum acc) 0 (B.binop checksum Ir.Add cur v));
  B.ret checksum (Some (B.load checksum (B.slot_addr checksum acc) 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 2500;
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (width * height)) (fun i ->
      let v = B.binop main Ir.Mul i (Ir.Const 13) in
      let v2 = B.binop main Ir.And v (Ir.Const 0xff) in
      B.store8 main (B.binop main Ir.Add (Ir.Global "im_pix") i) 0 v2);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 108)) (fun _ ->
      B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const height) (fun y ->
          B.call_void main (Ir.Direct "row_op") [ y ]));
  let chk = B.call main (Ir.Direct "im_checksum") [] in
  B.call_void main (Ir.Builtin "print_int") [ chk ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish row_op; B.finish checksum; B.finish main ]
    [
      { Ir.gname = "im_pix"; gsize = width * height; ginit = [] };
      { Ir.gname = "im_out"; gsize = width * height; ginit = [] };
    ]

(* ------------------------------------------------------------------ *)
(* leela: Monte-Carlo tree search — tree descent with a child-selection
   call per level and playout steps calling a scorer.                  *)
(* ------------------------------------------------------------------ *)
let leela scale =
  let select = B.func "select_child" ~nparams:2 in
  (* UCT-style scoring over 4 pseudo-children. *)
  let node = B.param 0 and r = B.param 1 in
  let best = B.slot select 8 in
  B.store select (B.slot_addr select best) 0 (Ir.Const 0);
  B.for_ select ~from:(Ir.Const 0) ~below:(Ir.Const 4) (fun c ->
      let mixed = B.binop select Ir.Xor node (B.binop select Ir.Add r c) in
      let m2 = B.binop select Ir.Mul mixed (Ir.Const 0x9e3779b9) in
      let visits = B.binop select Ir.And m2 (Ir.Const 0xff) in
      let wins = B.binop select Ir.And (B.binop select Ir.Shr m2 (Ir.Const 8)) (Ir.Const 0xff) in
      let score = B.binop select Ir.Add (B.binop select Ir.Mul wins (Ir.Const 4)) visits in
      let cur = B.load select (B.slot_addr select best) 0 in
      B.if_ select
        (B.cmp select Ir.Gt score cur)
        (fun () -> B.store select (B.slot_addr select best) 0 score)
        (fun () -> ()));
  let child = B.binop select Ir.And (B.load select (B.slot_addr select best) 0) (Ir.Const 0x3fffff) in
  B.ret select (Some child);
  let score = B.func "playout_score" ~nparams:1 in
  let p = B.param 0 in
  let s0 = B.binop score Ir.Rem p (Ir.Const 361) in
  let s1 = B.binop score Ir.Mul s0 (Ir.Const 0x45d9f3b) in
  let s2 = B.binop score Ir.Xor s1 (B.binop score Ir.Shr s1 (Ir.Const 11)) in
  let s3 = B.binop score Ir.Add s2 (B.binop score Ir.And p (Ir.Const 0x1f)) in
  let s4 = B.binop score Ir.Rem s3 (Ir.Const 361) in
  B.ret score (Some s4);
  let main = B.func "main" ~nparams:0 in
  working_set main 1600;
  let wins = B.slot main 8 in
  B.store main (B.slot_addr main wins) 0 (Ir.Const 0);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 265)) (fun _ ->
      (* Descend 8 plies. *)
      let node = B.slot main 8 in
      B.store main (B.slot_addr main node) 0 (Ir.Const 1);
      B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const 8) (fun _ ->
          let r = Wb.lcg main "le_rng" in
          let cur = B.load main (B.slot_addr main node) 0 in
          let c = B.call main (Ir.Direct "select_child") [ cur; r ] in
          B.store main (B.slot_addr main node) 0 c);
      (* Playout of 16 steps. *)
      B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const 16) (fun _ ->
          let r = Wb.lcg main "le_rng" in
          let s = B.call main (Ir.Direct "playout_score") [ r ] in
          let cur = B.load main (B.slot_addr main wins) 0 in
          B.store main (B.slot_addr main wins) 0 (B.binop main Ir.Add cur s)));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main wins) 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish select; B.finish score; B.finish main ]
    [ Wb.lcg_global "le_rng" ]

(* ------------------------------------------------------------------ *)
(* nab: molecular dynamics — the force loop calls tiny math helpers for
   every particle pair: by far the highest call frequency (Table 2).   *)
(* ------------------------------------------------------------------ *)
let nab scale =
  let particles = 75 in
  let dist2 = B.func "dist2" ~nparams:2 in
  let i = B.param 0 and j = B.param 1 in
  let xi = B.load dist2 (B.binop dist2 Ir.Add (Ir.Global "nb_x") (B.binop dist2 Ir.Mul i (Ir.Const 8))) 0 in
  let xj = B.load dist2 (B.binop dist2 Ir.Add (Ir.Global "nb_x") (B.binop dist2 Ir.Mul j (Ir.Const 8))) 0 in
  let d = B.binop dist2 Ir.Sub xi xj in
  B.ret dist2 (Some (B.binop dist2 Ir.Mul d d));
  let force_add = B.func "force_add" ~nparams:2 in
  let i = B.param 0 and f = B.param 1 in
  let slot = B.binop force_add Ir.Add (Ir.Global "nb_f") (B.binop force_add Ir.Mul i (Ir.Const 8)) in
  let cur = B.load force_add slot 0 in
  B.store force_add slot 0 (B.binop force_add Ir.Add cur f);
  B.ret force_add (Some (Ir.Const 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 1200;
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const particles) (fun i ->
      let off = B.binop main Ir.Mul i (Ir.Const 8) in
      let v = B.binop main Ir.Mul i (Ir.Const 31) in
      B.store main (B.binop main Ir.Add (Ir.Global "nb_x") off) 0 v);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 3)) (fun _ ->
      B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const particles) (fun i ->
          B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const particles) (fun j ->
              let d2 = B.call main (Ir.Direct "dist2") [ i; j ] in
              let f = B.binop main Ir.Rem d2 (Ir.Const 1021) in
              B.call_void main (Ir.Direct "force_add") [ i; f ])));
  let chk = B.load main (Ir.Global "nb_f") (8 * 50) in
  B.call_void main (Ir.Builtin "print_int") [ chk ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish dist2; B.finish force_add; B.finish main ]
    [
      { Ir.gname = "nb_x"; gsize = 8 * particles; ginit = [] };
      { Ir.gname = "nb_f"; gsize = 8 * particles; ginit = [] };
    ]

(* ------------------------------------------------------------------ *)
(* xz: LZ77-style match finding — hash-chain lookups over a byte
   buffer, emit calls per position.                                    *)
(* ------------------------------------------------------------------ *)
let xz scale =
  let input_len = 512 in
  let emit_literal = B.func "emit_literal" ~nparams:1 in
  let c = B.load emit_literal (Ir.Global "xz_out") 0 in
  let c2 = B.binop emit_literal Ir.Add c (Ir.Const 1) in
  B.store emit_literal (Ir.Global "xz_out") 0 c2;
  (* Range-coder flavoured checksum update. *)
  let chk = B.load emit_literal (Ir.Global "xz_chk") 0 in
  let m1 = B.binop emit_literal Ir.Mul chk (Ir.Const 31) in
  let m2 = B.binop emit_literal Ir.Add m1 (B.param 0) in
  let m3 = B.binop emit_literal Ir.Xor m2 (B.binop emit_literal Ir.Shr m2 (Ir.Const 9)) in
  let m4 = B.binop emit_literal Ir.And m3 (Ir.Const 0x3fff_ffff) in
  B.store emit_literal (Ir.Global "xz_chk") 0 m4;
  B.ret emit_literal (Some (Ir.Const 0));
  let emit_match = B.func "emit_match" ~nparams:2 in
  let c = B.load emit_match (Ir.Global "xz_out") 0 in
  B.store emit_match (Ir.Global "xz_out") 0 (B.binop emit_match Ir.Add c (B.param 1));
  B.ret emit_match (Some (Ir.Const 0));
  let compress = B.func "compress" ~nparams:1 in
  B.for_ compress ~from:(Ir.Const 4) ~below:(Ir.Const (input_len - 8)) (fun pos ->
      let addr = B.binop compress Ir.Add (Ir.Global "xz_in") pos in
      let b0 = B.load8 compress addr 0 in
      let b1 = B.load8 compress addr 1 in
      let h = B.binop compress Ir.Add (B.binop compress Ir.Mul b0 (Ir.Const 33)) b1 in
      let h2 = B.binop compress Ir.Rem h (Ir.Const 64) in
      let slot = B.binop compress Ir.Add (Ir.Global "xz_hash") (B.binop compress Ir.Mul h2 (Ir.Const 8)) in
      let prev = B.load compress slot 0 in
      B.store compress slot 0 pos;
      (* Compare 4 bytes at prev vs pos. *)
      let len = B.slot compress 8 in
      B.store compress (B.slot_addr compress len) 0 (Ir.Const 0);
      B.for_ compress ~from:(Ir.Const 0) ~below:(Ir.Const 4) (fun k ->
          let pa = B.binop compress Ir.Add (Ir.Global "xz_in") (B.binop compress Ir.Add prev k) in
          let pb = B.binop compress Ir.Add (Ir.Global "xz_in") (B.binop compress Ir.Add pos k) in
          let va = B.load8 compress pa 0 in
          let vb = B.load8 compress pb 0 in
          B.if_ compress
            (B.cmp compress Ir.Eq va vb)
            (fun () ->
              let cur = B.load compress (B.slot_addr compress len) 0 in
              B.store compress (B.slot_addr compress len) 0
                (B.binop compress Ir.Add cur (Ir.Const 1)))
            (fun () -> ()));
      let matched = B.load compress (B.slot_addr compress len) 0 in
      B.if_ compress
        (B.cmp compress Ir.Ge matched (Ir.Const 3))
        (fun () -> B.call_void compress (Ir.Direct "emit_match") [ prev; matched ])
        (fun () -> B.call_void compress (Ir.Direct "emit_literal") [ b0 ]));
  B.ret compress (Some (Ir.Const 0));
  let main = B.func "main" ~nparams:0 in
  working_set main 2400;
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const input_len) (fun i ->
      let v = B.binop main Ir.Mul i (Ir.Const 5) in
      let v2 = B.binop main Ir.And v (Ir.Const 0x3f) in
      B.store8 main (B.binop main Ir.Add (Ir.Global "xz_in") i) 0 v2);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const (sc scale 2)) (fun pass ->
      B.call_void main (Ir.Direct "compress") [ pass ]);
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "xz_out") 0 ];
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "xz_chk") 0 ];
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main"
    [ B.finish emit_literal; B.finish emit_match; B.finish compress; B.finish main ]
    [
      { Ir.gname = "xz_in"; gsize = input_len + 16; ginit = [] };
      { Ir.gname = "xz_hash"; gsize = 8 * 64; ginit = [] };
      { Ir.gname = "xz_out"; gsize = 8; ginit = [] };
      { Ir.gname = "xz_chk"; gsize = 8; ginit = [] };
    ]

(* SPEC runs several inputs per benchmark; our train/ref/big inputs scale
   the reference workload by 0.6/1.0/1.5. *)
let input_scales = [ 0.6; 1.0; 1.5 ]

let all ?(scale = 1.0) () =
  let mk name build paper_calls cpp =
    {
      name;
      program = build scale;
      inputs = List.map (fun s -> build (scale *. s)) input_scales;
      paper_calls;
      cpp;
    }
  in
  [
    mk "perlbench" perlbench 9_435_182_963.0 false;
    mk "gcc" gcc 7_471_474_392.0 false;
    mk "mcf" mcf 38_657_893_688.0 false;
    mk "lbm" lbm 20_906_700.0 false;
    mk "omnetpp" omnetpp 23_536_583_520.0 true;
    mk "xalancbmk" xalancbmk 12_430_137_048.0 true;
    mk "x264" x264 3_400_115_007.0 false;
    mk "deepsjeng" deepsjeng 11_366_032_234.0 true;
    mk "imagick" imagick 10_441_212_712.0 false;
    mk "leela" leela 13_108_456_661.0 true;
    mk "nab" nab 135_237_228_510.0 false;
    mk "xz" xz 3_287_645_643.0 false;
  ]

let find ?scale name =
  match List.find_opt (fun b -> b.name = name) (all ?scale ()) with
  | Some b -> b
  | None -> raise Not_found
