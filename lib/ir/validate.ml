type error = { where : string; what : string }

let error_to_string e = Printf.sprintf "%s: %s" e.where e.what

(* Use before initialization: a forward may-analysis on the Dataflow
   solver. A non-parameter var read while its "never yet defined" fact
   still holds on some path makes the block's entry state ill-defined —
   the interpreter happens to zero-fill, but the diversified lowering is
   entitled to leave whatever the register allocator parked there. An
   empty function or duplicated labels (an ambiguous successor map) get
   no report. *)
let labels_unique (f : Ir.func) =
  let seen = Hashtbl.create 16 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace seen b.lbl ()) f.blocks;
  Hashtbl.length seen = List.length f.blocks

let uninit_reads (f : Ir.func) =
  if f.blocks = [] || not (labels_unique f) then []
  else Dataflow.Uninit.(reads (compute f) f)

let check (p : Ir.program) =
  let errors = ref [] in
  let err where what = errors := { where; what } :: !errors in
  let func_names = Hashtbl.create 64 in
  let global_names = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      if Hashtbl.mem func_names f.name then err f.name "duplicate function name";
      Hashtbl.replace func_names f.name f.nparams)
    p.funcs;
  List.iter
    (fun (g : Ir.global) ->
      if Hashtbl.mem global_names g.gname then err g.gname "duplicate global name";
      if Hashtbl.mem func_names g.gname then err g.gname "global shadows function";
      if Ir.init_footprint g.ginit > g.gsize then err g.gname "initialiser exceeds size";
      Hashtbl.replace global_names g.gname ())
    p.globals;
  let sym_exists s = Hashtbl.mem func_names s || Hashtbl.mem global_names s in
  List.iter
    (fun (g : Ir.global) ->
      List.iter
        (function
          | (Ir.Sym_addr s | Ir.Sym_addr_off (s, _)) when not (sym_exists s) ->
              err g.gname (Printf.sprintf "initialiser references unknown symbol %s" s)
          | Ir.Sym_addr _ | Ir.Sym_addr_off _ | Ir.Word _ | Ir.Str _ -> ())
        g.ginit)
    p.globals;
  let check_func (f : Ir.func) =
    let where what = err f.name what in
    if f.nparams > f.nvars then where "nparams exceeds nvars";
    let labels = Hashtbl.create 16 in
    let dup_labels = ref false in
    List.iter
      (fun (b : Ir.block) ->
        if Hashtbl.mem labels b.lbl then begin
          dup_labels := true;
          where (Printf.sprintf "duplicate label %d" b.lbl)
        end;
        Hashtbl.replace labels b.lbl ())
      f.blocks;
    let check_label l =
      if not (Hashtbl.mem labels l) then where (Printf.sprintf "branch to unknown label %d" l)
    in
    let check_var v =
      if v < 0 || v >= f.nvars then where (Printf.sprintf "var %d out of range" v)
    in
    let check_operand = function
      | Ir.Const _ -> ()
      | Ir.Var v -> check_var v
      | Ir.Global g ->
          if not (Hashtbl.mem global_names g) then
            where (Printf.sprintf "unknown global %s" g)
      | Ir.Func fn ->
          if not (Hashtbl.mem func_names fn) then
            where (Printf.sprintf "unknown function %s" fn)
    in
    let check_callee callee nargs =
      match callee with
      | Ir.Direct name -> (
          match Hashtbl.find_opt func_names name with
          | None -> where (Printf.sprintf "call to unknown function %s" name)
          | Some nparams ->
              if nparams <> nargs then
                where
                  (Printf.sprintf "call to %s with %d args (expects %d)" name nargs nparams))
      | Ir.Indirect op -> check_operand op
      | Ir.Builtin name ->
          if not (List.mem name R2c_machine.Image.builtin_names) then
            where (Printf.sprintf "unknown builtin %s" name)
    in
    let check_instr i =
      Option.iter check_var (Ir.instr_def i);
      match i with
      | Ir.Slot_addr (_, s) ->
          if s < 0 || s >= Array.length f.slots then
            where (Printf.sprintf "slot %d out of range" s)
      | Ir.Call (_, callee, args) ->
          List.iter check_operand args;
          check_callee callee (List.length args)
      | _ -> List.iter check_operand (Ir.instr_operands i)
    in
    if f.blocks = [] then where "no blocks";
    List.iter
      (fun (b : Ir.block) ->
        List.iter check_instr b.body;
        List.iter check_operand (Ir.term_operands b.term);
        List.iter check_label (Ir.term_succs b.term))
      f.blocks;
    (* Reachability from the entry block: dead blocks are always a
       generator bug, and they inflate the diversified layout for no
       coverage. (Skipped when labels are duplicated — the successor map
       would be ambiguous.) Then use before initialization. *)
    if f.blocks <> [] && not !dup_labels then begin
      let blocks = Array.of_list f.blocks in
      Array.iteri
        (fun i seen ->
          if not seen then where (Printf.sprintf "unreachable block %d" blocks.(i).Ir.lbl))
        (Dataflow.reachable f);
      let reported = Hashtbl.create 8 in
      List.iter
        (fun (v, bi, _) ->
          let lbl = blocks.(bi).Ir.lbl in
          if not (Hashtbl.mem reported (lbl, v)) then begin
            Hashtbl.replace reported (lbl, v) ();
            where (Printf.sprintf "var %d read before any definition (block %d)" v lbl)
          end)
        Dataflow.Uninit.(reads (compute f) f)
    end
  in
  List.iter check_func p.funcs;
  (match Ir.find_func p p.main with
  | None -> err "program" (Printf.sprintf "main function %s not found" p.main)
  | Some f -> if f.nparams <> 0 then err p.main "main must take no parameters");
  List.rev !errors
