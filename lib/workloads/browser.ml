module B = Builder

(* DOM node layout (40 bytes):
   [0]  tag id
   [8]  style
   [16] child 0   (0 = none)
   [24] child 1
   [32] computed height *)

let html_len = 192

let tokenizer () =
  (* Scan the synthetic page source: count tags, intern tag names. *)
  let fb = B.func "bk_tokenize" ~nparams:1 in
  let seed = B.param 0 in
  let tags = B.slot fb 8 in
  B.store fb (B.slot_addr fb tags) 0 (Ir.Const 0);
  B.for_ fb ~from:(Ir.Const 0) ~below:(Ir.Const html_len) (fun i ->
      let c = B.load8 fb (B.binop fb Ir.Add (Ir.Global "bk_html") i) 0 in
      B.if_ fb
        (B.cmp fb Ir.Eq c (Ir.Const (Char.code '<')))
        (fun () ->
          let cur = B.load fb (B.slot_addr fb tags) 0 in
          B.store fb (B.slot_addr fb tags) 0 (B.binop fb Ir.Add cur (Ir.Const 1));
          (* intern: bump a bucket chosen from the following byte *)
          let nxt = B.load8 fb (B.binop fb Ir.Add (Ir.Global "bk_html") i) 1 in
          let h = B.binop fb Ir.And (B.binop fb Ir.Add nxt seed) (Ir.Const 31) in
          let slot = B.binop fb Ir.Add (Ir.Global "bk_names") (B.binop fb Ir.Mul h (Ir.Const 8)) in
          let v = B.load fb slot 0 in
          B.store fb slot 0 (B.binop fb Ir.Add v (Ir.Const 1)))
        (fun () -> ()));
  B.ret fb (Some (B.load fb (B.slot_addr fb tags) 0));
  B.finish fb

let dom_create () =
  (* Recursive DOM: two children per node down to depth 0. *)
  let fb = B.func "bk_dom_create" ~nparams:2 in
  let depth = B.param 0 and tag_seed = B.param 1 in
  let node = B.call fb (Ir.Builtin "malloc") [ Ir.Const 40 ] in
  let tag = B.binop fb Ir.And tag_seed (Ir.Const 15) in
  B.store fb node 0 tag;
  B.if_ fb
    (B.cmp fb Ir.Gt depth (Ir.Const 0))
    (fun () ->
      let d' = B.binop fb Ir.Sub depth (Ir.Const 1) in
      let s1 = B.binop fb Ir.Mul tag_seed (Ir.Const 31) in
      let s1m = B.binop fb Ir.And s1 (Ir.Const 0xffff) in
      let c0 = B.call fb (Ir.Direct "bk_dom_create") [ d'; s1m ] in
      B.store fb node 16 c0;
      let s2 = B.binop fb Ir.Add s1m (Ir.Const 7) in
      let c1 = B.call fb (Ir.Direct "bk_dom_create") [ d'; s2 ] in
      B.store fb node 24 c1)
    (fun () ->
      B.store fb node 16 (Ir.Const 0);
      B.store fb node 24 (Ir.Const 0));
  B.ret fb (Some node);
  B.finish fb

let style_match () =
  (* Selector match: a cheap hash compare, called once per node per rule. *)
  let fb = B.func "bk_style_match" ~nparams:2 in
  let tag = B.param 0 and rule = B.param 1 in
  let h = B.binop fb Ir.Xor (B.binop fb Ir.Mul tag (Ir.Const 131)) rule in
  let m = B.binop fb Ir.And h (Ir.Const 7) in
  let hit = B.cmp fb Ir.Eq m (Ir.Const 0) in
  B.ret fb (Some hit);
  B.finish fb

let apply_styles () =
  (* Recursive walk: try 4 rules per node. *)
  let fb = B.func "bk_apply_styles" ~nparams:1 in
  let node = B.param 0 in
  B.if_ fb
    (B.cmp fb Ir.Eq node (Ir.Const 0))
    (fun () -> ())
    (fun () ->
      let tag = B.load fb node 0 in
      let style = B.slot fb 8 in
      B.store fb (B.slot_addr fb style) 0 (Ir.Const 0);
      B.for_ fb ~from:(Ir.Const 0) ~below:(Ir.Const 4) (fun rule ->
          let hit = B.call fb (Ir.Direct "bk_style_match") [ tag; rule ] in
          B.if_ fb hit
            (fun () ->
              let cur = B.load fb (B.slot_addr fb style) 0 in
              let bit = B.binop fb Ir.Shl (Ir.Const 1) rule in
              B.store fb (B.slot_addr fb style) 0 (B.binop fb Ir.Or cur bit))
            (fun () -> ()));
      B.store fb node 8 (B.load fb (B.slot_addr fb style) 0);
      B.call_void fb (Ir.Direct "bk_apply_styles") [ B.load fb node 16 ];
      B.call_void fb (Ir.Direct "bk_apply_styles") [ B.load fb node 24 ]);
  B.ret fb (Some (Ir.Const 0));
  B.finish fb

let layout () =
  (* Recursive layout: height = children heights + style padding. At the
     deepest leaf the frame count is sampled via the unwind tables — a
     live check that backtraces survive diversification at depth. *)
  let fb = B.func "bk_layout" ~nparams:1 in
  let node = B.param 0 in
  let result = B.slot fb 8 in
  B.if_ fb
    (B.cmp fb Ir.Eq node (Ir.Const 0))
    (fun () -> B.store fb (B.slot_addr fb result) 0 (Ir.Const 0))
    (fun () ->
      let c0 = B.load fb node 16 in
      let c1 = B.load fb node 24 in
      B.if_ fb
        (B.cmp fb Ir.Eq c0 (Ir.Const 0))
        (fun () ->
          (* leaf: record the unwind depth once per page *)
          let seen = B.load fb (Ir.Global "bk_depth") 0 in
          B.if_ fb
            (B.cmp fb Ir.Eq seen (Ir.Const 0))
            (fun () ->
              let d = B.call fb (Ir.Builtin "backtrace") [] in
              B.store fb (Ir.Global "bk_depth") 0 d)
            (fun () -> ()))
        (fun () -> ());
      let h0 = B.call fb (Ir.Direct "bk_layout") [ c0 ] in
      let h1 = B.call fb (Ir.Direct "bk_layout") [ c1 ] in
      let style = B.load fb node 8 in
      let pad = B.binop fb Ir.And style (Ir.Const 3) in
      let sum = B.binop fb Ir.Add h0 h1 in
      let h = B.binop fb Ir.Add sum (B.binop fb Ir.Add pad (Ir.Const 1)) in
      B.store fb node 32 h;
      B.store fb (B.slot_addr fb result) 0 h);
  B.ret fb (Some (B.load fb (B.slot_addr fb result) 0));
  B.finish fb

let handler name transform =
  let fb = B.func name ~nparams:1 in
  let v = transform fb (B.param 0) in
  let acc = B.load fb (Ir.Global "bk_events") 0 in
  B.store fb (Ir.Global "bk_events") 0 (B.binop fb Ir.Add acc v);
  B.ret fb (Some v);
  B.finish fb

let dispatch_events () =
  (* Virtual dispatch through the handler table, click/scroll/key/timer. *)
  let fb = B.func "bk_dispatch" ~nparams:1 in
  let n = B.param 0 in
  B.for_ fb ~from:(Ir.Const 0) ~below:n (fun i ->
      let r = Wb.lcg fb "bk_rng" in
      let kind = B.binop fb Ir.And r (Ir.Const 3) in
      let off = B.binop fb Ir.Mul kind (Ir.Const 8) in
      let fp = B.load fb (B.binop fb Ir.Add (Ir.Global "bk_handlers") off) 0 in
      B.call_void fb (Ir.Indirect fp) [ B.binop fb Ir.Add r i ]);
  B.ret fb (Some (Ir.Const 0));
  B.finish fb

let script_interp () =
  (* A toy script VM: arithmetic ops plus DOM-read calls. *)
  let fb = B.func "bk_script" ~nparams:2 in
  let root = B.param 0 and steps = B.param 1 in
  let acc = B.slot fb 8 in
  B.store fb (B.slot_addr fb acc) 0 (Ir.Const 1);
  B.for_ fb ~from:(Ir.Const 0) ~below:steps (fun _ ->
      let r = Wb.lcg fb "bk_rng" in
      let op = B.binop fb Ir.And r (Ir.Const 3) in
      let a = B.load fb (B.slot_addr fb acc) 0 in
      B.if_ fb
        (B.cmp fb Ir.Eq op (Ir.Const 0))
        (fun () ->
          (* getElementHeight *)
          let h = B.load fb root 32 in
          B.store fb (B.slot_addr fb acc) 0 (B.binop fb Ir.Add a h))
        (fun () ->
          B.if_ fb
            (B.cmp fb Ir.Eq op (Ir.Const 1))
            (fun () ->
              let m = B.binop fb Ir.Mul a (Ir.Const 3) in
              B.store fb (B.slot_addr fb acc) 0 (B.binop fb Ir.And m (Ir.Const 0xffffff)))
            (fun () ->
              let x = B.binop fb Ir.Xor a r in
              B.store fb (B.slot_addr fb acc) 0 (B.binop fb Ir.And x (Ir.Const 0xffffff)))));
  B.ret fb (Some (B.load fb (B.slot_addr fb acc) 0));
  B.finish fb

let program ~pages =
  let main = B.func "main" ~nparams:0 in
  B.call_void main (Ir.Builtin "malloc_pages") [ Ir.Const 1500 ];
  let totals = B.slot main 8 in
  B.store main (B.slot_addr main totals) 0 (Ir.Const 0);
  B.for_ main ~from:(Ir.Const 0) ~below:(Ir.Const pages) (fun page ->
      let tags = B.call main (Ir.Direct "bk_tokenize") [ page ] in
      let root = B.call main (Ir.Direct "bk_dom_create") [ Ir.Const 6; B.binop main Ir.Add page (Ir.Const 3) ] in
      B.call_void main (Ir.Direct "bk_apply_styles") [ root ];
      let height = B.call main (Ir.Direct "bk_layout") [ root ] in
      B.call_void main (Ir.Direct "bk_dispatch") [ Ir.Const 24 ];
      let s = B.call main (Ir.Direct "bk_script") [ root; Ir.Const 40 ] in
      let acc = B.load main (B.slot_addr main totals) 0 in
      let acc1 = B.binop main Ir.Add acc tags in
      let acc2 = B.binop main Ir.Add acc1 height in
      let acc3 = B.binop main Ir.Add acc2 s in
      B.store main (B.slot_addr main totals) 0 (B.binop main Ir.And acc3 (Ir.Const 0x3fff_ffff)));
  B.call_void main (Ir.Builtin "print_int") [ B.load main (B.slot_addr main totals) 0 ];
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "bk_events") 0 ];
  B.call_void main (Ir.Builtin "print_int") [ B.load main (Ir.Global "bk_depth") 0 ];
  B.ret main (Some (Ir.Const 0));
  let html =
    let b = Buffer.create html_len in
    for i = 0 to html_len - 1 do
      Buffer.add_char b
        (if i mod 13 = 0 then '<'
         else if i mod 13 = 1 then "dphsba".[i mod 6]
         else Char.chr (97 + (i mod 23)))
    done;
    Buffer.contents b
  in
  B.program ~main:"main"
    [
      tokenizer (); dom_create (); style_match (); apply_styles (); layout ();
      handler "bk_on_click" (fun fb p -> B.binop fb Ir.And p (Ir.Const 0xff));
      handler "bk_on_scroll" (fun fb p -> B.binop fb Ir.Shr p (Ir.Const 3));
      handler "bk_on_key" (fun fb p -> B.binop fb Ir.Xor p (Ir.Const 0x42));
      handler "bk_on_timer" (fun fb p -> B.binop fb Ir.And p (Ir.Const 0x1f));
      dispatch_events (); script_interp (); B.finish main;
    ]
    [
      { Ir.gname = "bk_html"; gsize = html_len; ginit = [ Ir.Str html ] };
      { Ir.gname = "bk_names"; gsize = 8 * 32; ginit = [] };
      { Ir.gname = "bk_events"; gsize = 8; ginit = [] };
      { Ir.gname = "bk_depth"; gsize = 8; ginit = [] };
      {
        Ir.gname = "bk_handlers";
        gsize = 32;
        ginit =
          [ Ir.Sym_addr "bk_on_click"; Ir.Sym_addr "bk_on_scroll";
            Ir.Sym_addr "bk_on_key"; Ir.Sym_addr "bk_on_timer" ];
      };
      Wb.lcg_global "bk_rng";
    ]
