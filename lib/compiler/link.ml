open R2c_machine

(* A relocation template: everything layout-independent about one emitted
   function's placement ([Image.body]). Instruction byte offsets are fixed
   at emission time ([Asm.esizes]) and the pseudo-encoding depends only on
   opcode tags, so the body's bytes are computed once; only its
   relocations (the instructions carrying symbolic operands) need any work
   when the function lands at a new entry address — the rest is placed
   as-is. Computed once per cache entry by the incremental rebuild path,
   eagerly: templates are built inside the cache's parallel fan-out and
   shared across domains afterwards. Its distinct external symbols double
   as the eager undefined-symbol check list; the body's own labels are
   defined at placement and need none. *)
type template = Image.body

let template (e : Asm.emitted) =
  Image.body ~locals:((e.ename, 0) :: e.local_syms) e.insns e.esizes

let link_gen ~(opts : Opts.t) ~main (pairs : (Asm.emitted * template) list)
    (globals : Ir.global list) =
  let md = opts.mdesc in
  let plt_entry_bytes = md.Mdesc.plt_entry_bytes in
  let insn_size = md.Mdesc.insn_size in
  let npairs = List.length pairs in
  (* Sized for the full symbol population (functions, local labels,
     globals) up front: at fleet scale the default-doubling resizes are a
     measurable slice of the per-rotation relink. *)
  let symbols : (string, int) Hashtbl.t = Hashtbl.create (max 1024 (8 * npairs)) in
  let define name addr =
    if Hashtbl.mem symbols name then invalid_arg ("link: duplicate symbol " ^ name);
    Hashtbl.replace symbols name addr
  in
  let text_base = Addr.text_base + opts.text_slide in
  let builtin_addrs = Hashtbl.create 16 in
  List.iteri
    (fun i name ->
      let a = text_base + (i * plt_entry_bytes) in
      Hashtbl.replace builtin_addrs a name;
      define name a)
    Image.builtin_names;
  (* _start: run constructors, call main, halt with main's result. *)
  let start_insns =
    List.map (fun c -> Insn.Call (TSym (c, 0))) opts.constructors
    @ [ Insn.Call (TSym (main, 0)); Insn.Halt ]
  in
  let start_base = text_base + (List.length Image.builtin_names * plt_entry_bytes) in
  define "_start" start_base;
  let start_body =
    let insns = Array.of_list start_insns in
    Image.body ~locals:[] insns (Array.map insn_size insns)
  in
  let start_len = String.length start_body.Image.b_text in
  (* Function placement. *)
  let by_name = Hashtbl.create (max 256 (2 * npairs)) in
  List.iter
    (fun ((e : Asm.emitted), _) ->
      if Hashtbl.mem by_name e.ename then invalid_arg ("link: duplicate function " ^ e.ename);
      Hashtbl.replace by_name e.ename e)
    pairs;
  let tmpl_of = Hashtbl.create (max 256 (2 * npairs)) in
  List.iter (fun ((e : Asm.emitted), t) -> Hashtbl.replace tmpl_of e.Asm.ename t) pairs;
  let names = List.map (fun ((e : Asm.emitted), _) -> e.Asm.ename) pairs in
  let order = opts.func_order names in
  if List.length order <> List.length names then
    invalid_arg "link: func_order changed the number of functions";
  List.iter
    (fun n -> if not (Hashtbl.mem by_name n) then invalid_arg ("link: func_order invented " ^ n))
    order;
  let cursor = ref (start_base + start_len) in
  let placed =
    List.map
      (fun name ->
        let e : Asm.emitted = Hashtbl.find by_name name in
        let t : template = Hashtbl.find tmpl_of name in
        let entry = !cursor in
        define e.Asm.ename entry;
        List.iter (fun (s, off) -> define s (entry + off)) e.Asm.local_syms;
        let len = String.length t.Image.b_text in
        cursor := !cursor + len + max 0 (opts.func_pad ~fname:name);
        (e, t, entry, len))
      order
  in
  let text_len = !cursor - text_base in
  if text_base + text_len > Addr.text_limit then invalid_arg "link: text region overflow";
  (* Data layout. *)
  let data_base = Addr.data_base + opts.data_slide in
  let ordered_globals = opts.global_order (globals @ opts.extra_globals) in
  let dcursor = ref data_base in
  let global_addr =
    List.map
      (fun ((g : Ir.global), pad) ->
        let addr = Addr.align_up !dcursor ~align:16 in
        define g.gname addr;
        dcursor := addr + g.gsize + max 0 pad;
        (g, addr))
      ordered_globals
  in
  let data_len = max Addr.page_size (!dcursor - data_base) in
  if data_base + data_len > Addr.data_limit then invalid_arg "link: data region overflow";
  (* Resolution. *)
  let resolve s off =
    match Hashtbl.find_opt symbols s with
    | Some a -> a + off
    | None -> invalid_arg ("link: undefined symbol " ^ s)
  in
  (* The placed text: every distinct external symbol each body references
     (plus _start's own) is resolved now, so undefined references are a
     link-time error even though the per-instruction fill below is
     deferred; the addresses are kept for the placement-built predecode. *)
  let place entry (t : template) =
    { Image.c_entry = entry; c_body = t; c_ext = Array.map (fun s -> resolve s 0) t.Image.b_ext }
  in
  let chunks =
    Array.of_list (place start_base start_body :: List.map (fun (_, t, entry, _) -> place entry t) placed)
  in
  (* The per-instruction address table, in ascending address order:
     _start first, then the functions at their assigned entries. Lengths
     come from the emission-time encoder measurement ([Asm.esizes]):
     layout and execution must agree even when resolution changes an
     immediate's width. Only unresolved instructions touch the symbol
     table. Built on demand, straight from the emitted instructions,
     independently of the templates' slots — it is the reference the
     placement-built [Image.predecode] is checked against, and loading
     never needs it: the loader copies the templates' bytes. Layout and
     symbol checks above are the only eager per-rotation work, which is
     what makes the steady-state incremental relink relocation-only. *)
  let code_list =
    lazy
      (let total_insns =
         List.fold_left
           (fun acc ((e : Asm.emitted), _, _, _) -> acc + Array.length e.insns)
           (List.length start_insns) placed
       in
       let arr = Array.make total_insns (0, Insn.Halt, 0) in
       let slot = ref 0 in
       let place addr insn len =
         arr.(!slot) <- (addr, insn, len);
         incr slot
       in
       let (_ : int) =
         List.fold_left
           (fun addr insn ->
             let len = insn_size insn in
             let resolved = Insn.map_syms resolve insn in
             assert (Insn.is_resolved resolved);
             place addr resolved len;
             addr + len)
           start_base start_insns
       in
       let place_emitted (e : Asm.emitted) entry =
         let off = ref 0 in
         Array.iteri
           (fun i insn ->
             let insn =
               if Insn.is_resolved insn then insn
               else begin
                 let resolved = Insn.map_syms resolve insn in
                 assert (Insn.is_resolved resolved);
                 resolved
               end
             in
             place (entry + !off) insn e.esizes.(i);
             off := !off + e.esizes.(i))
           e.insns
       in
       List.iter (fun ((e : Asm.emitted), _, entry, _len) -> place_emitted e entry) placed;
       assert (!slot = total_insns);
       arr)
  in
  let unwind_sites = Hashtbl.create (max 1024 (4 * npairs)) in
  let checked_sites = Hashtbl.create 64 in
  let unwind_rows = ref [] in
  let funcs =
    List.map
      (fun ((e : Asm.emitted), _, entry, len) ->
        (match e.eframe with
        | Some meta ->
            unwind_rows := (entry, len, meta.Asm.frame_size, meta.Asm.post_words) :: !unwind_rows;
            List.iter
              (fun (ra, words) -> Hashtbl.replace unwind_sites (resolve ra 0) words)
              meta.Asm.ra_sites;
            List.iter
              (fun ra -> Hashtbl.replace checked_sites (resolve ra 0) ())
              meta.Asm.check_sites
        | None -> ());
        { Image.fname = e.ename; entry; code_len = len; is_booby_trap = e.ebooby_trap })
      placed
  in
  let unwind_funcs =
    let arr = Array.of_list !unwind_rows in
    Array.sort
      (fun (e1, _, _, _) (e2, _, _, _) -> Int.compare (e1 : int) e2)
      arr;
    arr
  in
  (* Global initialisers. Function symbols go through the code-pointer
     alias (CPH trampolines for defense models). The per-word
     materialization is deferred like the text fill — BTRA decoy arrays
     make the initialiser volume proportional to program size — but
     undefined references stay an eager link error: check each symbolic
     initialiser against the completed table now (membership only), and
     count the items so the deferred pass fills arrays sized up front. *)
  let is_func = Hashtbl.mem by_name in
  let alias s = if is_func s then opts.func_alias s else s in
  let check s = if not (Hashtbl.mem symbols s) then invalid_arg ("link: undefined symbol " ^ s) in
  let nwords = ref 0 and nsyms = ref 0 and nstrs = ref 0 in
  List.iter
    (fun ((g : Ir.global), _) ->
      List.iter
        (function
          | Ir.Sym_addr s -> check (alias s); incr nwords; incr nsyms
          | Ir.Sym_addr_off (s, _) -> check s; incr nwords; incr nsyms
          | Ir.Word _ -> incr nwords
          | Ir.Str _ -> incr nstrs)
        g.ginit)
    global_addr;
  (* One flat pass: [words] holds (address, value) pairs, [syms] the
     indices of the words a symbolic initialiser produced. *)
  let data_init =
    lazy
      (let words = Array.make (2 * !nwords) 0 in
       let syms = Array.make !nsyms 0 in
       let strs = Array.make !nstrs (0, "") in
       let w = ref 0 and sy = ref 0 and st = ref 0 in
       let word addr v =
         words.(2 * !w) <- addr;
         words.((2 * !w) + 1) <- v;
         incr w
       in
       let sym_word addr v =
         syms.(!sy) <- !w;
         incr sy;
         word addr v
       in
       List.iter
         (fun ((g : Ir.global), addr) ->
           let (_ : int) =
             List.fold_left
               (fun off item ->
                 match item with
                 | Ir.Word v ->
                     word (addr + off) v;
                     off + 8
                 | Ir.Sym_addr s ->
                     sym_word (addr + off) (resolve (alias s) 0);
                     off + 8
                 | Ir.Sym_addr_off (s, o) ->
                     sym_word (addr + off) (resolve s o);
                     off + 8
                 | Ir.Str s ->
                     strs.(!st) <- (addr + off, s);
                     incr st;
                     off + String.length s)
               0 g.ginit
           in
           ())
         global_addr;
       (words, syms, strs))
  in
  (* Symbolic initialisers resolving into text are the sanctioned
     code-pointer population the static auditor's hygiene rule checks
     readable memory against; only the auditor and fingerprints ask. *)
  let code_ptr_slots =
    lazy
      (let words, syms, _ = Lazy.force data_init in
       let h = Hashtbl.create (max 64 (Array.length syms)) in
       Array.iter
         (fun k ->
           let v = words.((2 * k) + 1) in
           if v >= text_base && v < text_base + text_len then Hashtbl.replace h words.(2 * k) ())
         syms;
       h)
  in
  let code =
    lazy
      (let arr = Lazy.force code_list in
       let h = Hashtbl.create (max 4096 (2 * Array.length arr)) in
       Array.iter (fun (addr, insn, len) -> Hashtbl.replace h addr (insn, len)) arr;
       h)
  in
  {
    Image.code;
    code_list;
    chunks;
    index = Atomic.make None;
    text_base;
    text_len;
    text_perm = opts.text_perm;
    data_base;
    data_len;
    data_words = lazy (let w, _, _ = Lazy.force data_init in w);
    data_bytes = lazy (let _, _, b = Lazy.force data_init in b);
    symbols;
    funcs;
    entry = start_base;
    builtin_addrs;
    stack_bytes = opts.stack_bytes;
    heap_base = Addr.heap_base + opts.heap_slide;
    unwind_funcs;
    unwind_sites;
    checked_sites;
    code_ptr_slots;
    shadow_stack = opts.shadow_stack;
  }

let link ~opts ~main emitted globals =
  link_gen ~opts ~main (List.map (fun e -> (e, template e)) emitted) globals

let link_templated ~opts ~main pairs globals = link_gen ~opts ~main pairs globals
