type error = { where : string; what : string }

let error_to_string e = Printf.sprintf "%s: %s" e.where e.what

(* Use before initialization: a forward may-analysis over the block
   successor map. A non-parameter var read while its "never yet defined"
   fact still holds on some path makes the block's entry state
   ill-defined — the interpreter happens to zero-fill, but the diversified
   lowering is entitled to leave whatever the register allocator parked
   there. *)
module ISet = Set.Make (Int)

let operand_uses = function Ir.Var v -> [ v ] | _ -> []

let instr_uses = function
  | Ir.Mov (_, op) | Ir.Load (_, op, _) | Ir.Load8 (_, op, _) -> operand_uses op
  | Ir.Binop (_, _, a, b) | Ir.Cmp (_, _, a, b) | Ir.Store (a, _, b) | Ir.Store8 (a, _, b)
    ->
      operand_uses a @ operand_uses b
  | Ir.Slot_addr _ -> []
  | Ir.Call (_, callee, args) ->
      (match callee with Ir.Indirect op -> operand_uses op | _ -> [])
      @ List.concat_map operand_uses args

let instr_def = function
  | Ir.Mov (v, _) | Ir.Binop (v, _, _, _) | Ir.Cmp (v, _, _, _)
  | Ir.Load (v, _, _) | Ir.Load8 (v, _, _) | Ir.Slot_addr (v, _) ->
      Some v
  | Ir.Store _ | Ir.Store8 _ -> None
  | Ir.Call (dst, _, _) -> dst

let term_uses = function
  | Ir.Ret (Some op) | Ir.Cond_br (op, _, _) -> operand_uses op
  | Ir.Ret None | Ir.Br _ -> []

(* Block successors by position in [f.blocks], unknown targets dropped;
   [None] for an empty function or duplicated labels (the map would be
   ambiguous). *)
let successors (f : Ir.func) =
  let blocks = Array.of_list f.blocks in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i (b : Ir.block) -> Hashtbl.replace index b.lbl i) blocks;
  if Array.length blocks = 0 || Hashtbl.length index <> Array.length blocks then None
  else
    Some
      (Array.map
         (fun (b : Ir.block) ->
           List.filter_map (Hashtbl.find_opt index)
             (match b.term with
             | Ir.Ret _ -> []
             | Ir.Br l -> [ l ]
             | Ir.Cond_br (_, l1, l2) -> [ l1; l2 ]))
         blocks)

let uninit_reads (f : Ir.func) =
  match successors f with
  | None -> []
  | Some succs ->
      let blocks = Array.of_list f.blocks in
      let n = Array.length blocks in
      let flow ?report maybe (b : Ir.block) =
        let maybe = ref maybe in
        let read k v =
          match report with Some f when ISet.mem v !maybe -> f k v | _ -> ()
        in
        List.iteri
          (fun k instr ->
            List.iter (read k) (instr_uses instr);
            match instr_def instr with Some v -> maybe := ISet.remove v !maybe | None -> ())
          b.body;
        List.iter (read (List.length b.body)) (term_uses b.term);
        !maybe
      in
      let at_entry = Array.make n ISet.empty in
      at_entry.(0) <-
        ISet.of_list (List.init (max 0 (f.nvars - f.nparams)) (fun i -> f.nparams + i));
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun i b ->
            let out = flow at_entry.(i) b in
            List.iter
              (fun j ->
                let next = ISet.union at_entry.(j) out in
                if not (ISet.equal next at_entry.(j)) then begin
                  at_entry.(j) <- next;
                  changed := true
                end)
              succs.(i))
          blocks
      done;
      let found = ref [] in
      Array.iteri
        (fun i b ->
          ignore (flow ~report:(fun k v -> found := (v, i, k) :: !found) at_entry.(i) b))
        blocks;
      List.rev !found

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
    List.iter
      (fun (b : Ir.block) ->
        if Hashtbl.mem labels b.lbl then
          where (Printf.sprintf "duplicate label %d" b.lbl);
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
    let check_instr = function
      | Ir.Mov (v, op) ->
          check_var v;
          check_operand op
      | Ir.Binop (v, _, a, b) | Ir.Cmp (v, _, a, b) ->
          check_var v;
          check_operand a;
          check_operand b
      | Ir.Load (v, base, _) | Ir.Load8 (v, base, _) ->
          check_var v;
          check_operand base
      | Ir.Store (base, _, value) | Ir.Store8 (base, _, value) ->
          check_operand base;
          check_operand value
      | Ir.Slot_addr (v, i) ->
          check_var v;
          if i < 0 || i >= Array.length f.slots then
            where (Printf.sprintf "slot %d out of range" i)
      | Ir.Call (dst, callee, args) ->
          Option.iter check_var dst;
          List.iter check_operand args;
          check_callee callee (List.length args)
    in
    (match f.blocks with
    | [] -> where "no blocks"
    | _ -> ());
    List.iter
      (fun (b : Ir.block) ->
        List.iter check_instr b.body;
        match b.term with
        | Ir.Ret None -> ()
        | Ir.Ret (Some op) -> check_operand op
        | Ir.Br l -> check_label l
        | Ir.Cond_br (c, l1, l2) ->
            check_operand c;
            check_label l1;
            check_label l2)
      f.blocks;
    (* Reachability from the entry block: dead blocks are always a
       generator bug, and they inflate the diversified layout for no
       coverage. (Skipped when labels are duplicated — the successor map
       would be ambiguous.) Then use before initialization. *)
    match successors f with
    | Some succs ->
        let seen = Array.make (Array.length succs) false in
        let rec visit i =
          if not seen.(i) then begin
            seen.(i) <- true;
            List.iter visit succs.(i)
          end
        in
        visit 0;
        let blocks = Array.of_list f.blocks in
        Array.iteri
          (fun i (b : Ir.block) ->
            if not seen.(i) then where (Printf.sprintf "unreachable block %d" b.lbl))
          blocks;
        let reported = Hashtbl.create 8 in
        List.iter
          (fun (v, bi, _) ->
            let lbl = blocks.(bi).Ir.lbl in
            if not (Hashtbl.mem reported (lbl, v)) then begin
              Hashtbl.replace reported (lbl, v) ();
              where (Printf.sprintf "var %d read before any definition (block %d)" v lbl)
            end)
          (uninit_reads f)
    | None -> ()
  in
  List.iter check_func p.funcs;
  (match Ir.find_func p p.main with
  | None -> err "program" (Printf.sprintf "main function %s not found" p.main)
  | Some f -> if f.nparams <> 0 then err p.main "main must take no parameters");
  List.rev !errors
