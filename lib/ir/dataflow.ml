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

(* Block successors by position in [f.blocks], unknown labels dropped; with
   [~preds] the predecessor lists instead. Joins are order-insensitive, so
   neither list is sorted. *)
let edges ?(preds = false) (f : Ir.func) =
  let idx = block_index f in
  let arr = Array.make (List.length f.blocks) [] in
  List.iteri
    (fun i (b : Ir.block) ->
      List.iter
        (fun l ->
          match Hashtbl.find_opt idx l with
          | Some j -> if preds then arr.(j) <- i :: arr.(j) else arr.(i) <- j :: arr.(i)
          | None -> ())
        (Ir.term_succs b.term))
    f.blocks;
  arr

let reachable (f : Ir.func) =
  let succs = edges f in
  let seen = Array.make (Array.length succs) false in
  let rec visit i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter visit succs.(i)
    end
  in
  if Array.length succs > 0 then visit 0;
  seen

let rec vars = function
  | [] -> []
  | Ir.Var v :: ops -> v :: vars ops
  | (Ir.Const _ | Ir.Global _ | Ir.Func _) :: ops -> vars ops

let instr_uses i = vars (Ir.instr_operands i)
let term_uses t = vars (Ir.term_operands t)

module Make (L : LATTICE) = struct
  type result = { block_in : L.t array; block_out : L.t array; iterations : int }

  (* Facts arrive at a block's [front] (its entry going forward, its exit
     going backward) as the join over its flow sources, and the transfer
     carries them to its [back]. [back] is a function of [front] alone, so
     after the first sweep a block whose [front] is unchanged is skipped,
     and a sweep changes some block's facts iff it changes some [front]. *)
  let solve ~direction ?(entry = L.bottom) ?(edge = fun ~src:_ ~dst:_ x -> x) ~transfer
      (f : Ir.func) =
    let blocks = Array.of_list f.blocks in
    let n = Array.length blocks in
    let sources = edges ~preds:(direction = Forward) f in
    let front = Array.make n L.bottom in
    let back = Array.make n L.bottom in
    let order, seeded, flow =
      match direction with
      | Forward -> (Array.init n (fun i -> i), (fun i -> i = 0), fun i j -> edge ~src:j ~dst:i)
      | Backward ->
          ( Array.init n (fun i -> n - 1 - i),
            (fun i -> match blocks.(i).Ir.term with Ir.Ret _ -> true | _ -> false),
            fun i j -> edge ~src:i ~dst:j )
    in
    let iterations = ref 0 in
    let changed = ref true in
    (* Monotone transfers over finite lattices converge; the cap turns a
       non-monotone client into a loud failure instead of a hang. *)
    let cap = 64 + (4 * n) in
    while !changed do
      changed := false;
      incr iterations;
      if !iterations > cap then invalid_arg "Dataflow.solve: no fixpoint (non-monotone transfer?)";
      let first = !iterations = 1 in
      Array.iter
        (fun i ->
          let x =
            List.fold_left
              (fun acc j -> L.join acc (flow i j back.(j)))
              (if seeded i then entry else L.bottom)
              sources.(i)
          in
          if first || not (L.equal x front.(i)) then begin
            let y = transfer i x in
            if not (first && L.equal x L.bottom && L.equal y L.bottom) then changed := true;
            front.(i) <- x;
            back.(i) <- y
          end)
        order
    done;
    let block_in, block_out =
      match direction with Forward -> (front, back) | Backward -> (back, front)
    in
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
    let live = match Ir.instr_def instr with Some v -> Iset.remove v live | None -> live in
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

module Uninit = struct
  type t = { maybe_in : Iset.t array; iterations : int }

  (* A block's effect on the may-uninit set; [report k v] hears every read
     of a var still in it (k = List.length body for the terminator). *)
  let through_block ?report (b : Ir.block) maybe =
    let maybe = ref maybe in
    let read k v = match report with Some f when Iset.mem v !maybe -> f k v | _ -> () in
    List.iteri
      (fun k instr ->
        List.iter (read k) (instr_uses instr);
        match Ir.instr_def instr with Some v -> maybe := Iset.remove v !maybe | None -> ())
      b.body;
    List.iter (read (List.length b.body)) (term_uses b.term);
    !maybe

  let compute (f : Ir.func) =
    let blocks = Array.of_list f.blocks in
    let entry = Iset.of_list (List.init (max 0 (f.nvars - f.nparams)) (fun i -> f.nparams + i)) in
    let r =
      Iset_solver.solve ~direction:Forward ~entry
        ~transfer:(fun i maybe -> through_block blocks.(i) maybe)
        f
    in
    { maybe_in = r.block_in; iterations = r.iterations }

  let reads t (f : Ir.func) =
    let found = ref [] in
    List.iteri
      (fun i b ->
        ignore (through_block ~report:(fun k v -> found := (v, i, k) :: !found) b t.maybe_in.(i)))
      f.blocks;
    List.rev !found
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
                  match Ir.instr_def instr with
                  | Some v -> ( match env.(v) with Cconst _ -> incr count | _ -> ())
                  | None -> ())
              b.body)
      f.blocks;
    !count
end

type stats = { folded : int; max_iterations : int }

let program_stats (p : Ir.program) =
  List.fold_left
    (fun acc (f : Ir.func) ->
      let lv = Liveness.compute f in
      let un = Uninit.compute f in
      let cp = Constprop.compute f in
      {
        folded = acc.folded + Constprop.folded cp f;
        max_iterations =
          List.fold_left max acc.max_iterations
            [ lv.Liveness.iterations; un.Uninit.iterations; cp.Constprop.iterations ];
      })
    { folded = 0; max_iterations = 0 }
    p.funcs
