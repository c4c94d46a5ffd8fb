type assignment =
  | In_reg of R2c_machine.Insn.reg
  | Spilled of int

type result = {
  assign : assignment array;
  nspills : int;
  used_regs : R2c_machine.Insn.reg list;
}

(* Conservative live intervals over a linear numbering of instructions:
   a variable's interval covers every position where it is mentioned plus
   the full extent of every block at whose boundary it is live. This over-
   approximates around loops, which is all linear scan needs for
   correctness. *)
let intervals (f : Ir.func) =
  let { Dataflow.Liveness.live_in; live_out; _ } = Dataflow.Liveness.compute f in
  let blocks = Array.of_list f.blocks in
  (* Position ranges per block. *)
  let starts = Array.make (Array.length blocks) 0 in
  let stops = Array.make (Array.length blocks) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i (b : Ir.block) ->
      starts.(i) <- !pos;
      pos := !pos + List.length b.body + 1;
      stops.(i) <- !pos - 1)
    blocks;
  let lo = Array.make f.nvars max_int in
  let hi = Array.make f.nvars (-1) in
  let touch v p =
    if p < lo.(v) then lo.(v) <- p;
    if p > hi.(v) then hi.(v) <- p
  in
  (* Parameters are defined at function entry. *)
  for v = 0 to f.nparams - 1 do
    touch v 0
  done;
  Array.iteri
    (fun i (b : Ir.block) ->
      Dataflow.Iset.iter (fun v -> touch v starts.(i)) live_in.(i);
      Dataflow.Iset.iter (fun v -> touch v stops.(i)) live_out.(i);
      let p = ref starts.(i) in
      List.iter
        (fun instr ->
          List.iter (fun v -> touch v !p) (Dataflow.instr_uses instr);
          Option.iter (fun v -> touch v !p) (Ir.instr_def instr);
          incr p)
        b.body;
      List.iter (fun v -> touch v !p) (Dataflow.term_uses b.term))
    blocks;
  Array.init f.nvars (fun v -> if hi.(v) < 0 then (0, 0) else (lo.(v), hi.(v)))

let allocate ~pool (f : Ir.func) =
  let ivals = intervals f in
  let order = List.init f.nvars (fun v -> v) in
  let order = List.sort (fun a b -> compare (fst ivals.(a)) (fst ivals.(b))) order in
  let assign = Array.make f.nvars (Spilled 0) in
  let free = ref pool in
  let active = ref [] (* (stop, var, reg), sorted by stop *) in
  let used = Hashtbl.create 8 in
  let nspills = ref 0 in
  let expire start =
    let expired, still = List.partition (fun (stop, _, _) -> stop < start) !active in
    List.iter (fun (_, _, r) -> free := r :: !free) expired;
    active := still
  in
  List.iter
    (fun v ->
      let start, stop = ivals.(v) in
      expire start;
      match !free with
      | r :: rest ->
          free := rest;
          assign.(v) <- In_reg r;
          Hashtbl.replace used r ();
          active := List.sort compare ((stop, v, r) :: !active)
      | [] ->
          assign.(v) <- Spilled !nspills;
          incr nspills)
    order;
  let used_regs = List.filter (Hashtbl.mem used) pool in
  { assign; nspills = !nspills; used_regs }
