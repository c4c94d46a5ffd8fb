(* ---- weight: every accepted edit strictly decreases it ---- *)

let bits n =
  let n = abs n in
  let rec go acc n = if n = 0 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let op_weight = function
  | Ir.Const 0 | Ir.Const 1 -> 0
  | Ir.Const n -> 2 + bits n
  | Ir.Var _ -> 8
  | Ir.Global _ | Ir.Func _ -> 12

let ops_weight = List.fold_left (fun a o -> a + op_weight o) 0

(* Mov is cheaper than every other instruction so collapsing an
   arithmetic or memory op into a copy is a strict improvement. *)
let instr_weight i = (match i with Ir.Mov _ -> 20 | _ -> 30) + ops_weight (Ir.instr_operands i)

let term_weight (t : Ir.term) =
  (match t with Ret _ -> 0 | Br _ -> 5 | Cond_br _ -> 50) + ops_weight (Ir.term_operands t)

let weight (p : Ir.program) =
  let fw (f : Ir.func) =
    10_000
    + (5 * Array.length f.slots)
    + List.fold_left
        (fun a (b : Ir.block) ->
          a + 40
          + List.fold_left (fun a i -> a + instr_weight i) 0 b.body
          + term_weight b.term)
        0 f.blocks
  in
  let gw (g : Ir.global) = 500 + (8 * List.length g.ginit) in
  List.fold_left (fun a f -> a + fw f) 0 p.funcs
  + List.fold_left (fun a g -> a + gw g) 0 p.globals

(* ---- structural edits ---- *)

let map_func p name g =
  { p with Ir.funcs = List.map (fun (f : Ir.func) -> if f.name = name then g f else f) p.Ir.funcs }

let map_blocks g (f : Ir.func) = { f with Ir.blocks = List.map g f.Ir.blocks }

(* Drop unreachable blocks (the entry stays first), so collapsing a
   conditional branch leaves a program Validate accepts. *)
let gc_blocks (f : Ir.func) =
  let live = Dataflow.reachable f in
  { f with blocks = List.filteri (fun i _ -> live.(i)) f.blocks }

(* Remove a function wholesale: calls to it become [Mov dst, 0] (or
   vanish), address-of operands and table initialisers become 0. *)
let remove_func (p : Ir.program) name =
  let fix_op = function Ir.Func n when n = name -> Ir.Const 0 | o -> o in
  let fix_instr (i : Ir.instr) =
    match i with
    | Call (Some d, Direct n, _) when n = name -> Some (Ir.Mov (d, Ir.Const 0))
    | Call (None, Direct n, _) when n = name -> None
    | i -> Some (Ir.map_instr_operands fix_op i)
  in
  {
    Ir.main = p.main;
    funcs =
      List.filter_map
        (fun (f : Ir.func) ->
          if f.name = name then None
          else
            Some
              (map_blocks
                 (fun (b : Ir.block) ->
                   {
                     b with
                     Ir.body = List.filter_map fix_instr b.body;
                     term = Ir.map_term_operands fix_op b.term;
                   })
                 f))
        p.funcs;
    globals =
      List.map
        (fun (g : Ir.global) ->
          {
            g with
            Ir.ginit =
              List.map
                (function
                  | (Ir.Sym_addr n | Ir.Sym_addr_off (n, _)) when n = name -> Ir.Word 0
                  | it -> it)
                g.ginit;
          })
        p.globals;
  }

(* Does some instruction or terminator of [f] read an operand [is]? *)
let reads (f : Ir.func) is =
  List.exists
    (fun (b : Ir.block) ->
      List.exists (fun i -> List.exists is (Ir.instr_operands i)) b.body
      || List.exists is (Ir.term_operands b.term))
    f.blocks

let var_used f v = reads f (function Ir.Var w -> w = v | _ -> false)

let edit_block_instr p fname lbl j g =
  map_func p fname
    (map_blocks (fun (b : Ir.block) ->
         if b.lbl <> lbl then b
         else
           {
             b with
             Ir.body =
               List.concat (List.mapi (fun k i -> if k = j then g i else [ i ]) b.body);
           }))

let global_used (p : Ir.program) name =
  List.exists (fun f -> reads f (function Ir.Global g -> g = name | _ -> false)) p.funcs
  || List.exists
       (fun (g : Ir.global) ->
         List.exists
           (function
             | Ir.Sym_addr n | Ir.Sym_addr_off (n, _) -> n = name
             | Ir.Word _ | Ir.Str _ -> false)
           g.ginit)
       p.globals

(* Renumber stack slots so only referenced ones remain. *)
let compact_slots (f : Ir.func) =
  let n = Array.length f.slots in
  let used = Array.make n false in
  List.iter
    (fun (b : Ir.block) ->
      List.iter (function Ir.Slot_addr (_, i) when i < n -> used.(i) <- true | _ -> ()) b.body)
    f.blocks;
  let remap = Array.make n (-1) in
  let next = ref 0 in
  Array.iteri
    (fun i u ->
      if u then begin
        remap.(i) <- !next;
        incr next
      end)
    used;
  if !next = n then None
  else
    let slots =
      Array.of_list
        (List.filteri (fun i _ -> used.(i)) (Array.to_list f.slots))
    in
    Some
      (map_blocks
         (fun (b : Ir.block) ->
           {
             b with
             Ir.body =
               List.map
                 (function
                   | Ir.Slot_addr (v, i) -> Ir.Slot_addr (v, remap.(i))
                   | i -> i)
                 b.body;
           })
         { f with slots })

(* ---- candidate enumeration, big edits first ---- *)

let candidates (p : Ir.program) : (unit -> Ir.program) list =
  let cands = ref [] in
  let push c = cands := c :: !cands in
  (* Operand simplifications + constant halving (small edits, pushed first
     so they end up last after the final reversal). *)
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          (* Terminator operands. *)
          (match b.term with
          | Ret (Some o) when op_weight o > 0 ->
              push (fun () ->
                  map_func p f.name
                    (map_blocks (fun (b' : Ir.block) ->
                         if b'.lbl = b.lbl then { b' with Ir.term = Ret None } else b')))
          | _ -> ());
          List.iteri
            (fun j i ->
              List.iteri
                (fun k o ->
                  let replace o' =
                    push (fun () ->
                        edit_block_instr p f.name b.lbl j (fun i ->
                            [
                              Ir.instr_with_operands i
                                (List.mapi
                                   (fun k' o0 -> if k' = k then o' else o0)
                                   (Ir.instr_operands i));
                            ]))
                  in
                  (match o with
                  | Ir.Const n when n <> 0 && n <> 1 && n asr 1 <> n ->
                      replace (Ir.Const (n asr 1))
                  | _ -> ());
                  if op_weight o > 0 then begin
                    replace (Ir.Const 1);
                    replace (Ir.Const 0)
                  end)
                (Ir.instr_operands i))
            b.body)
        f.blocks)
    p.funcs;
  (* Data-flow collapse: rewrite a defining instruction to a copy of one
     of its own operands, and forward stored values into loads, so chains
     threaded through arithmetic and memory shrink to Movs. *)
  List.iter
    (fun (f : Ir.func) ->
      let store_vals =
        List.concat_map
          (fun (b : Ir.block) ->
            List.filter_map
              (function
                | Ir.Store (_, _, v) | Ir.Store8 (_, _, v) -> Some v
                | _ -> None)
              b.Ir.body)
          f.blocks
      in
      List.iter
        (fun (b : Ir.block) ->
          List.iteri
            (fun j i ->
              match (Ir.instr_def i, i) with
              | Some _, Ir.Mov _ | None, _ -> ()
              | Some v, _ ->
                  let try_mov o =
                    push (fun () ->
                        edit_block_instr p f.name b.lbl j (fun _ -> [ Ir.Mov (v, o) ]))
                  in
                  List.iter try_mov (Ir.instr_operands i);
                  (match i with
                  | Ir.Load _ | Ir.Load8 _ -> List.iter try_mov store_vals
                  | _ -> ()))
            b.body)
        f.blocks)
    p.funcs;
  (* Copy propagation: a [Mov v, o] whose target has no other definition
     can vanish, with every use of [v] rewritten to [o]. *)
  List.iter
    (fun (f : Ir.func) ->
      let defs v =
        List.fold_left
          (fun a (b : Ir.block) ->
            List.fold_left
              (fun a i -> if Ir.instr_def i = Some v then a + 1 else a)
              a b.Ir.body)
          0 f.blocks
      in
      List.iter
        (fun (b : Ir.block) ->
          List.iteri
            (fun j i ->
              match i with
              | Ir.Mov (v, o) when o <> Ir.Var v && defs v = 1 ->
                  push (fun () ->
                      let subst o' = if o' = Ir.Var v then o else o' in
                      map_func
                        (edit_block_instr p f.name b.lbl j (fun _ -> []))
                        f.name
                        (map_blocks (fun (b' : Ir.block) ->
                             {
                               b' with
                               Ir.body = List.map (Ir.map_instr_operands subst) b'.Ir.body;
                               term = Ir.map_term_operands subst b'.term;
                             })))
              | _ -> ())
            b.body)
        f.blocks)
    p.funcs;
  (* Merge a block into its unique successor when nothing else jumps
     there, straightening br-chains left by other edits. *)
  List.iter
    (fun (f : Ir.func) ->
      let preds l =
        List.fold_left
          (fun a (b : Ir.block) ->
            a + List.length (List.filter (( = ) l) (Ir.term_succs b.term)))
          0 f.blocks
      in
      List.iter
        (fun (b : Ir.block) ->
          match b.term with
          | Br l when l <> b.lbl && preds l = 1 -> (
              match List.find_opt (fun (b' : Ir.block) -> b'.Ir.lbl = l) f.blocks with
              | Some tgt ->
                  push (fun () ->
                      map_func p f.name (fun f ->
                          gc_blocks
                            (map_blocks
                               (fun (b' : Ir.block) ->
                                 if b'.lbl = b.lbl then
                                   { b' with Ir.body = b'.Ir.body @ tgt.Ir.body; term = tgt.Ir.term }
                                 else b')
                               f)))
              | None -> ())
          | _ -> ())
        f.blocks)
    p.funcs;
  (* Slot compaction and unused-global removal. *)
  List.iter
    (fun (f : Ir.func) ->
      match compact_slots f with
      | Some f' -> push (fun () -> map_func p f.name (fun _ -> f'))
      | None -> ())
    p.funcs;
  List.iter
    (fun (g : Ir.global) ->
      (match g.ginit with
      | _ :: _ ->
          push (fun () ->
              {
                p with
                Ir.globals =
                  List.map
                    (fun (g' : Ir.global) ->
                      if g'.gname = g.gname then
                        { g' with Ir.ginit = List.filteri (fun i _ -> i < List.length g.ginit - 1) g.ginit }
                      else g')
                    p.Ir.globals;
              })
      | [] -> ());
      if not (global_used p g.gname) then
        push (fun () ->
            { p with Ir.globals = List.filter (fun (g' : Ir.global) -> g'.gname <> g.gname) p.Ir.globals }))
    p.globals;
  (* Per-instruction drops / neutralisations. *)
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iteri
            (fun j i ->
              match Ir.instr_def i with
              | None ->
                  (* Pure effects (stores, void calls) can simply go. *)
                  push (fun () -> edit_block_instr p f.name b.lbl j (fun _ -> []))
              | Some v ->
                  if not (var_used f v) then
                    push (fun () -> edit_block_instr p f.name b.lbl j (fun _ -> []))
                  else if i <> Ir.Mov (v, Ir.Const 0) then
                    (* Keep the definition so no variable reads garbage on
                       the compiled side (the interpreter zero-fills). *)
                    push (fun () ->
                        edit_block_instr p f.name b.lbl j (fun _ -> [ Ir.Mov (v, Ir.Const 0) ])))
            b.body)
        f.blocks)
    p.funcs;
  (* Conditional branches become unconditional (then GC dead blocks). *)
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          match b.term with
          | Cond_br (_, l1, l2) ->
              List.iter
                (fun l ->
                  push (fun () ->
                      map_func p f.name (fun f ->
                          gc_blocks
                            (map_blocks
                               (fun (b' : Ir.block) ->
                                 if b'.lbl = b.lbl then { b' with Ir.term = Br l } else b')
                               f))))
                [ l2; l1 ]
          | Ret _ | Br _ -> ())
        f.blocks)
    p.funcs;
  (* Whole-function removal: the biggest cut, tried first. *)
  List.iter
    (fun (f : Ir.func) ->
      if f.name <> p.main then push (fun () -> remove_func p f.name))
    p.funcs;
  !cands

(* The greedy delta-debugging core, independent of what is being shrunk:
   keep proposing candidate edits, accept any that strictly decreases the
   weight while staying [valid] and still satisfying [keep], restart the
   candidate enumeration from the new value, stop at a fixpoint or when
   the predicate budget runs out. The IR shrinker below and the replay
   trace reducer are both instances. *)
module Greedy = struct
  type stats = { checks : int; kept : int }

  let fix ?(max_checks = 4000) ~weight ~candidates ~valid ~keep v0 =
    let checks = ref 0 in
    let ok c =
      valid c
      && (incr checks;
          keep c)
    in
    let cur = ref v0 in
    let kept = ref 0 in
    let progress = ref true in
    (try
       while !progress do
         progress := false;
         let w = weight !cur in
         List.iter
           (fun mk ->
             if not !progress then begin
               if !checks >= max_checks then raise Exit;
               let c = mk () in
               if weight c < w && ok c then begin
                 cur := c;
                 incr kept;
                 progress := true
               end
             end)
           (candidates !cur)
       done
     with Exit -> ());
    (!cur, { checks = !checks; kept = !kept })
end

let run ?max_checks ~still_fails p0 =
  fst
    (Greedy.fix ?max_checks ~weight ~candidates
       ~valid:(fun c -> Validate.check c = [])
       ~keep:still_fails p0)
