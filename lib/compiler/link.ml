open R2c_machine

(* A relocation template: everything layout-independent about one emitted
   function's placement. Its [Image.body] carries the pseudo-encoded
   bytes (instruction byte offsets are fixed at emission time
   ([Asm.esizes]) and the encoding depends only on opcode tags) and the
   relocations — the instructions carrying symbolic operands, the only
   ones that need any work when the function lands at a new entry. The
   unwind and post-return-check sites are converted from return-address
   labels to offsets from the entry here, once, so placing them is an
   addition. Computed once per cache entry by the incremental rebuild
   path, eagerly: templates are built inside the cache's parallel fan-out
   and shared across domains afterwards. *)
type template = {
  t_body : Image.body;
  t_unwind : (int * int) array;  (* (return-address offset, words) per call site *)
  t_checked : int array;  (* return-address offsets of checked call sites *)
}

let template (e : Asm.emitted) =
  let t_body = Image.body ~locals:((e.ename, 0) :: e.local_syms) e.insns e.esizes in
  match e.eframe with
  | None -> { t_body; t_unwind = [||]; t_checked = [||] }
  | Some meta ->
      let locals = Hashtbl.create (2 * List.length e.local_syms + 1) in
      List.iter (fun (s, off) -> Hashtbl.replace locals s off) e.local_syms;
      let off s =
        match Hashtbl.find_opt locals s with
        | Some o -> o
        | None -> invalid_arg ("link: undefined symbol " ^ s)
      in
      {
        t_body;
        t_unwind = Array.of_list (List.map (fun (ra, words) -> (off ra, words)) meta.Asm.ra_sites);
        t_checked = Array.of_list (List.map off meta.Asm.check_sites);
      }

(* One function of a plan. Its local labels are the consecutive symbol
   ids from [f_label0], label [k] at [f_offs.(k)] from the entry;
   [f_ext.(k)] is the id of the body's external [b_ext.(k)]. *)
type pfunc = {
  f_emitted : Asm.emitted;
  f_tmpl : template;
  f_label0 : int;
  f_offs : int array;
  f_ext : int array;
  f_len : int;
}

(* One global of a plan: its 64-bit initialisers as [(offset, symbol id,
   value)] triples flattened into [g_words] — id [-1] is a literal
   [value], otherwise [value] is the addend — and its byte runs. Function
   symbols already went through the code-pointer alias. Flat arrays, not
   the [ginit] list: the per-rotation data pass then reads contiguous
   memory. *)
type pglobal = {
  g_words : int array;
  g_strs : (int * string) array;
}

(* Everything about a link that does not depend on the layout: every
   symbol interned once into a dense id (builtins, [_start], the functions
   — consecutive, from [f0] — their local labels, function by function,
   then the globals — consecutive, from [g0]), the templates with their
   externals as ids, and the globals' initialisers as ids. The duplicate-
   and undefined-symbol checks run here; placement is then integer
   arithmetic over [place]'s address array. *)
type plan = {
  ids : (string, int) Hashtbl.t;  (* name -> id, shared by every placed image *)
  plt_entry_bytes : int;
  start_id : int;
  start_body : Image.body;
  start_ext : int array;
  f0 : int;
  funcs : pfunc array;  (* input order *)
  fnames : string array;  (* their names: [func_order]'s argument *)
  g0 : int;
  globals : pglobal array;  (* input order *)
  gdefs : Ir.global array;  (* their definitions: [global_order]'s argument *)
  nwords : int;  (* initialiser totals, to size the data pass: 64-bit words, *)
  nsyms : int;  (* symbolic words among them, *)
  nstrs : int;  (* and byte runs *)
}

let plan ~(opts : Opts.t) ~main (pairs : (Asm.emitted * template) list) (globals : Ir.global list) =
  let md = opts.mdesc in
  let funcs_in = Array.of_list pairs in
  let globals_in = Array.of_list (globals @ opts.extra_globals) in
  let nb = List.length Image.builtin_names in
  let nf = Array.length funcs_in and ng = Array.length globals_in in
  let nlabels =
    Array.fold_left (fun n ((e : Asm.emitted), _) -> n + List.length e.local_syms) 0 funcs_in
  in
  let total = nb + 1 + nf + nlabels + ng in
  let ids : (string, int) Hashtbl.t = Hashtbl.create (max 1024 total) in
  let next = ref 0 in
  let intern name =
    if Hashtbl.mem ids name then invalid_arg ("link: duplicate symbol " ^ name);
    let id = !next in
    Hashtbl.add ids name id;
    incr next;
    id
  in
  List.iter (fun s -> ignore (intern s)) Image.builtin_names;
  let start_id = intern "_start" in
  let f0 = !next in
  Array.iter
    (fun ((e : Asm.emitted), _) ->
      match Hashtbl.find_opt ids e.ename with
      | Some id when id >= f0 -> invalid_arg ("link: duplicate function " ^ e.ename)
      | _ -> ignore (intern e.ename))
    funcs_in;
  let lookup s =
    match Hashtbl.find_opt ids s with
    | Some id -> id
    | None -> invalid_arg ("link: undefined symbol " ^ s)
  in
  let label0 =
    Array.map
      (fun ((e : Asm.emitted), _) ->
        let first = !next in
        List.iter (fun (s, _) -> ignore (intern s)) e.local_syms;
        first)
      funcs_in
  in
  let g0 = !next in
  Array.iter (fun (g : Ir.global) -> ignore (intern g.gname)) globals_in;
  assert (!next = total);
  (* _start: run constructors, call main, halt with main's result. *)
  let start_body =
    let insns =
      Array.of_list
        (List.map (fun c -> Insn.Call (TSym (c, 0))) opts.constructors
        @ [ Insn.Call (TSym (main, 0)); Insn.Halt ])
    in
    Image.body ~locals:[] insns (Array.map md.Mdesc.insn_size insns)
  in
  let start_ext = Array.map lookup start_body.Image.b_ext in
  let funcs =
    Array.mapi
      (fun i ((e : Asm.emitted), (t : template)) ->
        {
          f_emitted = e;
          f_tmpl = t;
          f_label0 = label0.(i);
          f_offs = Array.of_list (List.map snd e.local_syms);
          f_ext = Array.map lookup t.t_body.Image.b_ext;
          f_len = String.length t.t_body.Image.b_text;
        })
      funcs_in
  in
  (* Global initialisers. Function symbols go through the code-pointer
     alias (CPH trampolines for defense models). *)
  let alias s =
    match Hashtbl.find_opt ids s with
    | Some id when id >= f0 && id < f0 + nf -> opts.func_alias s
    | _ -> s
  in
  let nwords = ref 0 and nsyms = ref 0 and nstrs = ref 0 in
  let globals =
    Array.map
      (fun (g : Ir.global) ->
        let gstrs = List.fold_left (fun n -> function Ir.Str _ -> n + 1 | _ -> n) 0 g.ginit in
        let g_words = Array.make (3 * (List.length g.ginit - gstrs)) 0 in
        let g_strs = Array.make gstrs (0, "") in
        let w = ref 0 and st = ref 0 in
        let word off id v =
          g_words.(3 * !w) <- off;
          g_words.((3 * !w) + 1) <- id;
          g_words.((3 * !w) + 2) <- v;
          incr w;
          if id >= 0 then incr nsyms;
          off + 8
        in
        let (_ : int) =
          List.fold_left
            (fun off item ->
              match item with
              | Ir.Word v -> word off (-1) v
              | Ir.Sym_addr s -> word off (lookup (alias s)) 0
              | Ir.Sym_addr_off (s, o) -> word off (lookup s) o
              | Ir.Str s ->
                  g_strs.(!st) <- (off, s);
                  incr st;
                  off + String.length s)
            0 g.ginit
        in
        nwords := !nwords + !w;
        nstrs := !nstrs + gstrs;
        { g_words; g_strs })
      globals_in
  in
  {
    ids;
    plt_entry_bytes = md.Mdesc.plt_entry_bytes;
    start_id;
    start_body;
    start_ext;
    f0;
    funcs;
    fnames = Array.map (fun ((e : Asm.emitted), _) -> e.ename) funcs_in;
    g0;
    globals;
    gdefs = globals_in;
    nwords = !nwords;
    nsyms = !nsyms;
    nstrs = !nstrs;
  }

(* The layout of one image: [opts]' order, padding and slide hooks decide
   an address per symbol id, and every placed table is read off the plan
   by id. The order hooks permute plan indices, so no name is looked up;
   the tables only the unwinder and the static tools read are derived on
   first read. *)
let place (pl : plan) ~(opts : Opts.t) =
  let addrs = Array.make (Hashtbl.length pl.ids) 0 in
  let text_base = Addr.text_base + opts.text_slide in
  let builtin_addrs = Hashtbl.create 16 in
  List.iteri
    (fun i name ->
      let a = text_base + (i * pl.plt_entry_bytes) in
      Hashtbl.replace builtin_addrs a name;
      addrs.(i) <- a)
    Image.builtin_names;
  let start_base = text_base + (List.length Image.builtin_names * pl.plt_entry_bytes) in
  addrs.(pl.start_id) <- start_base;
  (* Function placement: [order.(k)] is the plan index of the [k]-th
     function in the text. *)
  let nf = Array.length pl.funcs in
  let order = opts.func_order pl.fnames and seen = Array.make nf false in
  if Array.length order <> nf then invalid_arg "link: func_order changed the number of functions";
  Array.iter
    (fun i ->
      if i < 0 || i >= nf then invalid_arg (Printf.sprintf "link: func_order invented index %d" i);
      if seen.(i) then invalid_arg ("link: duplicate symbol " ^ pl.fnames.(i));
      seen.(i) <- true)
    order;
  let entries = Array.make nf 0 in
  let cursor = ref (start_base + String.length pl.start_body.Image.b_text) in
  Array.iteri
    (fun k i ->
      let f = pl.funcs.(i) in
      let entry = !cursor in
      entries.(k) <- entry;
      addrs.(pl.f0 + i) <- entry;
      Array.iteri (fun j off -> addrs.(f.f_label0 + j) <- entry + off) f.f_offs;
      cursor := entry + f.f_len + max 0 (opts.func_pad ~fname:f.f_emitted.ename))
    order;
  let text_len = !cursor - text_base in
  if text_base + text_len > Addr.text_limit then invalid_arg "link: text region overflow";
  (* Data layout: [gorder.(k)] is the plan index of the [k]-th global. *)
  let ng = Array.length pl.globals in
  let data_base = Addr.data_base + opts.data_slide in
  let gorder, pads = opts.global_order pl.gdefs in
  if Array.length gorder <> ng || Array.length pads <> ng then
    invalid_arg "link: global_order changed the number of globals";
  let gseen = Array.make ng false in
  let dcursor = ref data_base in
  Array.iteri
    (fun k j ->
      if j < 0 || j >= ng then invalid_arg (Printf.sprintf "link: global_order invented index %d" j);
      let g = pl.gdefs.(j) in
      if gseen.(j) then invalid_arg ("link: duplicate symbol " ^ g.gname);
      gseen.(j) <- true;
      let addr = Addr.align_up !dcursor ~align:16 in
      addrs.(pl.g0 + j) <- addr;
      dcursor := addr + g.gsize + max 0 pads.(k))
    gorder;
  let data_len = max Addr.page_size (!dcursor - data_base) in
  if data_base + data_len > Addr.data_limit then invalid_arg "link: data region overflow";
  (* The placed text, _start first: each chunk's externals are the plan's
     ids, read off the address array by the loader-free fetch
     ([Image.predecode]). *)
  let chunks =
    Array.init (nf + 1) (fun k ->
        if k = 0 then
          { Image.c_entry = start_base; c_body = pl.start_body; c_ext = pl.start_ext; c_addrs = addrs }
        else
          let f = pl.funcs.(order.(k - 1)) in
          { Image.c_entry = entries.(k - 1); c_body = f.f_tmpl.t_body; c_ext = f.f_ext; c_addrs = addrs })
  in
  let funcs =
    Array.mapi
      (fun k i ->
        let e = pl.funcs.(i).f_emitted in
        {
          Image.fname = e.ename;
          entry = entries.(k);
          code_len = pl.funcs.(i).f_len;
          is_booby_trap = e.ebooby_trap;
        })
      order
  in
  (* Unwind rows, in placement order — ascending by entry, as the
     unwinder's binary search needs (framed functions are never empty, so
     entries are distinct). *)
  let rows = ref [] in
  Array.iteri
    (fun k i ->
      let f = pl.funcs.(i) in
      match f.f_emitted.eframe with
      | None -> ()
      | Some meta -> rows := (entries.(k), f.f_len, meta.Asm.frame_size, meta.Asm.post_words) :: !rows)
    order;
  let unwind_funcs = Array.of_list (List.rev !rows) in
  (* The site tables, built on first read: only the unwinder and the
     static tools ask, never a rotation or a load. They are sized and
     filled in placement order, so their iteration order — which the
     auditor's report follows — is a function of the layout alone. *)
  let sites =
    lazy
      (let unwind_sites = Hashtbl.create (max 1024 (4 * nf)) in
       let checked_sites = Hashtbl.create 64 in
       Array.iteri
         (fun k i ->
           let t = pl.funcs.(i).f_tmpl and entry = entries.(k) in
           Array.iter (fun (off, words) -> Hashtbl.replace unwind_sites (entry + off) words) t.t_unwind;
           Array.iter (fun off -> Hashtbl.replace checked_sites (entry + off) ()) t.t_checked)
         order;
       { Image.unwind_sites; checked_sites })
  in
  (* Global initialisers, materialized on first use in one flat pass sized
     by the plan: [words] holds (address, value) pairs, [syms] the indices
     of the words a symbolic initialiser produced. BTRA decoy arrays make
     the initialiser volume proportional to program size, so the relink
     defers it; undefined references were already the plan's error. *)
  let data_init =
    lazy
      (let words = Array.make (2 * pl.nwords) 0 in
       let syms = Array.make pl.nsyms 0 in
       let strs = Array.make pl.nstrs (0, "") in
       let w = ref 0 and sy = ref 0 and st = ref 0 in
       Array.iter
         (fun j ->
           let pg = pl.globals.(j) in
           let addr = addrs.(pl.g0 + j) in
           let gw = pg.g_words in
           for n = 0 to (Array.length gw / 3) - 1 do
             let id = gw.((3 * n) + 1) and v = gw.((3 * n) + 2) in
             words.(2 * !w) <- addr + gw.(3 * n);
             if id < 0 then words.((2 * !w) + 1) <- v
             else begin
               words.((2 * !w) + 1) <- addrs.(id) + v;
               syms.(!sy) <- !w;
               incr sy
             end;
             incr w
           done;
           Array.iter
             (fun (off, s) ->
               strs.(!st) <- (addr + off, s);
               incr st)
             pg.g_strs)
         gorder;
       (words, syms, strs))
  in
  (* Symbolic initialisers resolving into text are the sanctioned
     code-pointer population the static auditor's hygiene rule checks
     readable memory against; only the auditor and fingerprints ask. *)
  let code_ptr_slots =
    lazy
      (let words, syms, _ = Image.force data_init in
       let h = Hashtbl.create (max 64 (Array.length syms)) in
       Array.iter
         (fun k ->
           let v = words.((2 * k) + 1) in
           if v >= text_base && v < text_base + text_len then Hashtbl.replace h words.(2 * k) ())
         syms;
       h)
  in
  {
    Image.chunks;
    code = Atomic.make None;
    index = Atomic.make None;
    jit = Atomic.make [];
    text_base;
    text_len;
    text_perm = opts.text_perm;
    data_base;
    data_len;
    data_words = lazy (let w, _, _ = Image.force data_init in w);
    data_bytes = lazy (let _, _, b = Image.force data_init in b);
    text_pages = Image.text_cells ~text_base ~text_len;
    data_pages = Atomic.make None;
    sym_ids = pl.ids;
    sym_addrs = addrs;
    funcs;
    entry = start_base;
    builtin_addrs;
    stack_bytes = opts.stack_bytes;
    heap_base = Addr.heap_base + opts.heap_slide;
    unwind_funcs;
    sites;
    code_ptr_slots;
    shadow_stack = opts.shadow_stack;
  }

let link ~opts ~main emitted globals =
  place (plan ~opts ~main (List.map (fun e -> (e, template e)) emitted) globals) ~opts
