type direction = Forward | Backward

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

let block_index (f : Ir.func) =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i (b : Ir.block) -> Hashtbl.replace tbl b.lbl i) f.blocks;
  tbl

let succs (f : Ir.func) =
  let idx = block_index f in
  let arr = Array.make (List.length f.blocks) [] in
  List.iteri
    (fun i (b : Ir.block) ->
      let s =
        match b.term with
        | Ir.Ret _ -> []
        | Ir.Br l -> [ l ]
        | Ir.Cond_br (_, l1, l2) -> [ l1; l2 ]
      in
      arr.(i) <- List.filter_map (fun l -> Hashtbl.find_opt idx l) s)
    f.blocks;
  arr

let preds (f : Ir.func) =
  let sx = succs f in
  let arr = Array.make (Array.length sx) [] in
  Array.iteri (fun i ss -> List.iter (fun s -> arr.(s) <- i :: arr.(s)) ss) sx;
  (* Reversed accumulation: restore ascending order for determinism. *)
  Array.map List.rev arr

let op_uses = function Ir.Var v -> [ v ] | Ir.Const _ | Ir.Global _ | Ir.Func _ -> []

let instr_uses = function
  | Ir.Mov (_, op) -> op_uses op
  | Ir.Binop (_, _, a, b) | Ir.Cmp (_, _, a, b) -> op_uses a @ op_uses b
  | Ir.Load (_, base, _) | Ir.Load8 (_, base, _) -> op_uses base
  | Ir.Store (base, _, value) | Ir.Store8 (base, _, value) -> op_uses base @ op_uses value
  | Ir.Slot_addr _ -> []
  | Ir.Call (_, callee, args) ->
      (match callee with
      | Ir.Indirect op -> op_uses op
      | Ir.Direct _ | Ir.Builtin _ -> [])
      @ List.concat_map op_uses args

let instr_defs = function
  | Ir.Mov (v, _)
  | Ir.Binop (v, _, _, _)
  | Ir.Cmp (v, _, _, _)
  | Ir.Load (v, _, _)
  | Ir.Load8 (v, _, _)
  | Ir.Slot_addr (v, _) ->
      [ v ]
  | Ir.Store _ | Ir.Store8 _ -> []
  | Ir.Call (dst, _, _) -> Option.to_list dst

let term_uses = function
  | Ir.Ret (Some op) -> op_uses op
  | Ir.Cond_br (c, _, _) -> op_uses c
  | Ir.Ret None | Ir.Br _ -> []

module Make (L : LATTICE) = struct
  type result = { block_in : L.t array; block_out : L.t array; iterations : int }

  let solve ~direction ?(entry = L.bottom) ?(edge = fun ~src:_ ~dst:_ x -> x) ~transfer
      (f : Ir.func) =
    let blocks = Array.of_list f.blocks in
    let n = Array.length blocks in
    let sx = succs f and px = preds f in
    let block_in = Array.make n L.bottom in
    let block_out = Array.make n L.bottom in
    let order =
      match direction with
      | Forward -> Array.init n (fun i -> i)
      | Backward -> Array.init n (fun i -> n - 1 - i)
    in
    let is_exit i = match blocks.(i).Ir.term with Ir.Ret _ -> true | _ -> false in
    let iterations = ref 0 in
    let changed = ref true in
    (* Monotone transfers over finite lattices converge; the cap turns a
       non-monotone client into a loud failure instead of a hang. *)
    let cap = 64 + (4 * n) in
    while !changed do
      changed := false;
      incr iterations;
      if !iterations > cap then invalid_arg "Dataflow.solve: no fixpoint (non-monotone transfer?)";
      Array.iter
        (fun i ->
          match direction with
          | Forward ->
              let inc =
                List.fold_left
                  (fun acc p -> L.join acc (edge ~src:p ~dst:i block_out.(p)))
                  L.bottom px.(i)
              in
              let inc = if i = 0 then L.join inc entry else inc in
              let out = transfer i inc in
              if not (L.equal inc block_in.(i) && L.equal out block_out.(i)) then
                changed := true;
              block_in.(i) <- inc;
              block_out.(i) <- out
          | Backward ->
              let out =
                List.fold_left
                  (fun acc s -> L.join acc (edge ~src:i ~dst:s block_in.(s)))
                  L.bottom sx.(i)
              in
              let out = if is_exit i then L.join out entry else out in
              let inc = transfer i out in
              if not (L.equal inc block_in.(i) && L.equal out block_out.(i)) then
                changed := true;
              block_in.(i) <- inc;
              block_out.(i) <- out)
        order
    done;
    { block_in; block_out; iterations = !iterations }
end

module Iset = Set.Make (Int)

module Iset_lattice = struct
  type t = Iset.t

  let bottom = Iset.empty
  let equal = Iset.equal
  let join = Iset.union
end

module Iset_solver = Make (Iset_lattice)

module Liveness = struct
  type t = { live_in : Iset.t array; live_out : Iset.t array; iterations : int }

  let through_instr instr live =
    let live = List.fold_left (fun s v -> Iset.remove v s) live (instr_defs instr) in
    List.fold_left (fun s v -> Iset.add v s) live (instr_uses instr)

  let through_block (b : Ir.block) live_out =
    let live = List.fold_left (fun s v -> Iset.add v s) live_out (term_uses b.term) in
    List.fold_left (fun live instr -> through_instr instr live) live (List.rev b.body)

  let compute (f : Ir.func) =
    let blocks = Array.of_list f.blocks in
    let r =
      Iset_solver.solve ~direction:Backward
        ~transfer:(fun i out -> through_block blocks.(i) out)
        f
    in
    { live_in = r.block_in; live_out = r.block_out; iterations = r.iterations }

  let before t (f : Ir.func) bi =
    let b = List.nth f.blocks bi in
    let n = List.length b.body in
    let table = Array.make (n + 1) Iset.empty in
    table.(n) <-
      List.fold_left (fun s v -> Iset.add v s) t.live_out.(bi) (term_uses b.term);
    List.iteri
      (fun k instr ->
        (* k-th from the end of the body *)
        let pos = n - 1 - k in
        table.(pos) <- through_instr instr table.(pos + 1))
      (List.rev b.body);
    table
end

module Reaching = struct
  type site = Param of Ir.var | Uninit of Ir.var | Def of int * int

  type t = {
    sites : site array;
    site_var : int array;
    reach_in : Iset.t array;
    reach_out : Iset.t array;
    iterations : int;
  }

  (* Def-site numbering: params, then virtual uninit sites, then textual
     definitions in layout order — stable per function. *)
  let enumerate (f : Ir.func) =
    let sites = ref [] in
    let add s v = sites := (s, v) :: !sites in
    for v = 0 to f.nparams - 1 do
      add (Param v) v
    done;
    for v = f.nparams to f.nvars - 1 do
      add (Uninit v) v
    done;
    List.iteri
      (fun bi (b : Ir.block) ->
        List.iteri
          (fun k instr -> List.iter (fun v -> add (Def (bi, k)) v) (instr_defs instr))
          b.body)
      f.blocks;
    let all = List.rev !sites in
    (Array.of_list (List.map fst all), Array.of_list (List.map snd all))

  let compute (f : Ir.func) =
    let sites, site_var = enumerate f in
    (* var -> all of its def ids (the kill-set support). *)
    let var_sites = Array.make (max f.nvars 1) Iset.empty in
    Array.iteri (fun id v -> var_sites.(v) <- Iset.add id var_sites.(v)) site_var;
    (* (block, instr) -> def id for the textual defs. *)
    let def_id = Hashtbl.create 64 in
    Array.iteri
      (fun id s -> match s with Def (bi, k) -> Hashtbl.replace def_id (bi, k) id | _ -> ())
      sites;
    let blocks = Array.of_list f.blocks in
    let transfer bi inc =
      let set = ref inc in
      List.iteri
        (fun k instr ->
          List.iter
            (fun v ->
              let id = Hashtbl.find def_id (bi, k) in
              set := Iset.add id (Iset.diff !set var_sites.(v)))
            (instr_defs instr))
        blocks.(bi).Ir.body;
      !set
    in
    let entry = ref Iset.empty in
    Array.iteri
      (fun id s ->
        match s with Param _ | Uninit _ -> entry := Iset.add id !entry | Def _ -> ())
      sites;
    let r = Iset_solver.solve ~direction:Forward ~entry:!entry ~transfer f in
    { sites; site_var; reach_in = r.block_in; reach_out = r.block_out;
      iterations = r.iterations }
end

module Constprop = struct
  type cval = Cundef | Cconst of int | Cslot of int * int | Cvaries

  type t = { env_in : cval array option array; executable : bool array; iterations : int }

  let join_cval a b =
    match (a, b) with
    | Cundef, x | x, Cundef -> x
    | Cconst x, Cconst y when x = y -> a
    | Cslot (i, d), Cslot (i', d') when i = i' && d = d' -> a
    | _ -> Cvaries

  let eval env = function
    | Ir.Const n -> Cconst n
    | Ir.Var v -> env.(v)
    | Ir.Global _ | Ir.Func _ -> Cvaries

  (* Mirrors Interp.eval_binop exactly, except that a constant zero
     divisor stays symbolic (the interpreter traps; the lint rule
     reports it). *)
  let fold_binop op a b =
    match (op, a, b) with
    | _, Cundef, _ | _, _, Cundef -> Cundef
    | (Ir.Div | Ir.Rem), _, Cconst 0 -> Cvaries
    | op, Cconst x, Cconst y ->
        Cconst
          (match op with
          | Ir.Add -> x + y
          | Ir.Sub -> x - y
          | Ir.Mul -> x * y
          | Ir.Div -> x / y
          | Ir.Rem -> x mod y
          | Ir.And -> x land y
          | Ir.Or -> x lor y
          | Ir.Xor -> x lxor y
          | Ir.Shl -> x lsl (y land 63)
          | Ir.Shr -> x lsr (y land 63)
          | Ir.Sar -> x asr (y land 63))
    | Ir.Add, Cslot (i, d), Cconst c | Ir.Add, Cconst c, Cslot (i, d) -> Cslot (i, d + c)
    | Ir.Sub, Cslot (i, d), Cconst c -> Cslot (i, d - c)
    | _ -> Cvaries

  let fold_cmp c a b =
    match (a, b) with
    | Cundef, _ | _, Cundef -> Cundef
    | Cconst x, Cconst y ->
        let r =
          match c with
          | Ir.Eq -> x = y
          | Ir.Ne -> x <> y
          | Ir.Lt -> x < y
          | Ir.Le -> x <= y
          | Ir.Gt -> x > y
          | Ir.Ge -> x >= y
        in
        Cconst (if r then 1 else 0)
    | _ -> Cvaries

  let exec_instr env = function
    | Ir.Mov (v, op) -> env.(v) <- eval env op
    | Ir.Binop (v, op, a, b) -> env.(v) <- fold_binop op (eval env a) (eval env b)
    | Ir.Cmp (v, c, a, b) -> env.(v) <- fold_cmp c (eval env a) (eval env b)
    | Ir.Load (v, _, _) | Ir.Load8 (v, _, _) -> env.(v) <- Cvaries
    | Ir.Store _ | Ir.Store8 _ -> ()
    | Ir.Slot_addr (v, i) -> env.(v) <- Cslot (i, 0)
    | Ir.Call (dst, _, _) -> (
        match dst with Some d -> env.(d) <- Cvaries | None -> ())

  module Env_lattice = struct
    type t = cval array option

    let bottom = None

    let equal a b =
      match (a, b) with
      | None, None -> true
      | Some x, Some y -> x = y
      | _ -> false

    let join a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some x, Some y -> Some (Array.init (Array.length x) (fun i -> join_cval x.(i) y.(i)))
  end

  module Env_solver = Make (Env_lattice)

  let compute (f : Ir.func) =
    let blocks = Array.of_list f.blocks in
    let idx = block_index f in
    let transfer bi = function
      | None -> None
      | Some env ->
          let env = Array.copy env in
          List.iter (exec_instr env) blocks.(bi).Ir.body;
          Some env
    in
    let edge ~src ~dst fact =
      match fact with
      | None -> None
      | Some env -> (
          match blocks.(src).Ir.term with
          | Ir.Cond_br (c, l1, l2) -> (
              match eval env c with
              | Cconst n ->
                  let taken = if n <> 0 then l1 else l2 in
                  if Hashtbl.find_opt idx taken = Some dst then fact else None
              | Cundef | Cvaries | Cslot _ -> fact)
          | Ir.Br _ | Ir.Ret _ -> fact)
    in
    let entry_env =
      Array.init (max f.nvars 1) (fun v -> if v < f.nparams then Cvaries else Cundef)
    in
    let r =
      Env_solver.solve ~direction:Forward ~entry:(Some entry_env) ~edge ~transfer f
    in
    {
      env_in = r.block_in;
      executable = Array.map (fun e -> e <> None) r.block_in;
      iterations = r.iterations;
    }

  let before t (f : Ir.func) bi =
    match t.env_in.(bi) with
    | None -> invalid_arg "Dataflow.Constprop.before: non-executable block"
    | Some env0 ->
        let b = List.nth f.blocks bi in
        let n = List.length b.body in
        let table = Array.make (n + 1) [||] in
        let env = ref (Array.copy env0) in
        List.iteri
          (fun k instr ->
            table.(k) <- Array.copy !env;
            exec_instr !env instr)
          b.body;
        table.(n) <- Array.copy !env;
        table

  let folded t (f : Ir.func) =
    let count = ref 0 in
    List.iteri
      (fun bi (b : Ir.block) ->
        match t.env_in.(bi) with
        | None -> ()
        | Some env0 ->
            let env = Array.copy env0 in
            List.iter
              (fun instr ->
                exec_instr env instr;
                let foldable =
                  match instr with
                  | Ir.Mov (_, Ir.Const _) -> false
                  | Ir.Mov _ | Ir.Binop _ | Ir.Cmp _ -> true
                  | _ -> false
                in
                if foldable then
                  match instr_defs instr with
                  | [ v ] -> ( match env.(v) with Cconst _ -> incr count | _ -> ())
                  | _ -> ())
              b.body)
      f.blocks;
    !count
end

type stats = { folded : int; max_iterations : int }

let program_stats (p : Ir.program) =
  List.fold_left
    (fun acc (f : Ir.func) ->
      let lv = Liveness.compute f in
      let rd = Reaching.compute f in
      let cp = Constprop.compute f in
      {
        folded = acc.folded + Constprop.folded cp f;
        max_iterations =
          List.fold_left max acc.max_iterations
            [ lv.Liveness.iterations; rd.Reaching.iterations; cp.Constprop.iterations ];
      })
    { folded = 0; max_iterations = 0 }
    p.funcs
