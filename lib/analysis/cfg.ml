open R2c_machine

type block = {
  b_entry : int;
  b_insns : (int * Insn.t * int) list;
  b_succs : int list;
  b_calls : int list;
  b_indirect : int;
}

type func = {
  fc_name : string;
  fc_entry : int;
  fc_len : int;
  fc_booby_trap : bool;
  fc_blocks : block list;
}

type t = {
  funcs : func list;
  call_graph : (string, string list) Hashtbl.t;
}

(* Images are fully resolved (the linker asserts it), so every direct
   branch target is a [TAbs]. *)
let branch_target : Insn.t -> int option = function
  | Jmp (TAbs t) | Jcc (_, TAbs t) -> Some t
  | _ -> None

let is_terminator : Insn.t -> bool = function
  | Jmp _ | Jcc _ | Jmp_ind _ | Ret | Trap | Halt -> true
  | _ -> false

let decode_range img entry len =
  let rec go addr acc =
    if addr >= entry + len then List.rev acc
    else
      match Image.code_at img addr with
      | Some (insn, ilen) -> go (addr + ilen) ((addr, insn, ilen) :: acc)
      | None -> List.rev acc
  in
  go entry []

let recover_func img (fi : Image.func_info) =
  let insns = decode_range img fi.entry fi.code_len in
  let inside a = a >= fi.entry && a < fi.entry + fi.code_len in
  let leaders = Hashtbl.create 16 in
  Hashtbl.replace leaders fi.entry ();
  List.iter
    (fun (addr, insn, ilen) ->
      (match branch_target insn with
      | Some t when inside t -> Hashtbl.replace leaders t ()
      | _ -> ());
      if is_terminator insn then Hashtbl.replace leaders (addr + ilen) ())
    insns;
  let rec split cur acc = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | ((addr, _, _) as i) :: rest ->
        if Hashtbl.mem leaders addr && cur <> [] then split [ i ] (List.rev cur :: acc) rest
        else split (i :: cur) acc rest
  in
  let blocks =
    List.map
      (fun group ->
        let b_entry, _, _ = List.hd group in
        let laddr, last, llen = List.nth group (List.length group - 1) in
        let fall = laddr + llen in
        (* Direct transfers leaving the function (tail jumps, and Jcc
           targets under shuffling bugs) count as cross-function edges,
           exactly what the booby-trap reachability rule needs. *)
        let succs, cross =
          match last with
          | Insn.Jmp (TAbs t) -> if inside t then ([ t ], []) else ([], [ t ])
          | Insn.Jcc (_, TAbs t) ->
              let s = if inside fall then [ fall ] else [] in
              if inside t then (t :: s, []) else (s, [ t ])
          | Insn.Ret | Insn.Trap | Insn.Halt -> ([], [])
          | _ -> ((if inside fall then [ fall ] else []), [])
        in
        let calls =
          List.fold_left
            (fun acc (_, i, _) ->
              match i with Insn.Call (TAbs t) -> t :: acc | _ -> acc)
            cross group
        in
        let indirect =
          List.fold_left
            (fun acc (_, i, _) ->
              match i with Insn.Call_ind _ | Insn.Jmp_ind _ -> acc + 1 | _ -> acc)
            0 group
        in
        {
          b_entry;
          b_insns = group;
          b_succs = List.sort_uniq compare succs;
          b_calls = List.rev calls;
          b_indirect = indirect;
        })
      (split [] [] insns)
  in
  {
    fc_name = fi.fname;
    fc_entry = fi.entry;
    fc_len = fi.code_len;
    fc_booby_trap = fi.is_booby_trap;
    fc_blocks = blocks;
  }

(* [_start] is emitted by the linker without a func_info record; recover it
   as a synthetic function covering the gap up to the first placed
   function. *)
let start_info (img : Image.t) =
  let next =
    Array.fold_left
      (fun acc (f : Image.func_info) ->
        if f.entry > img.entry && f.entry < acc then f.entry else acc)
      (img.text_base + img.text_len) img.funcs
  in
  { Image.fname = "_start"; entry = img.entry; code_len = next - img.entry;
    is_booby_trap = false }

let recover (img : Image.t) =
  let funcs = List.map (recover_func img) (start_info img :: Array.to_list img.funcs) in
  let name_of addr =
    match Hashtbl.find_opt img.builtin_addrs addr with
    | Some n -> Some n
    | None -> (
        match Image.func_of_addr img addr with
        | Some f -> Some f.fname
        | None -> None)
  in
  let call_graph = Hashtbl.create 64 in
  List.iter
    (fun fc ->
      let callees =
        List.concat_map (fun b -> List.filter_map name_of b.b_calls) fc.fc_blocks
      in
      Hashtbl.replace call_graph fc.fc_name (List.sort_uniq compare callees))
    funcs;
  { funcs; call_graph }

type stats = {
  n_funcs : int;
  n_blocks : int;
  n_edges : int;
  n_call_edges : int;
  n_indirect : int;
}

let stats t =
  List.fold_left
    (fun acc fc ->
      List.fold_left
        (fun acc b ->
          {
            acc with
            n_blocks = acc.n_blocks + 1;
            n_edges = acc.n_edges + List.length b.b_succs;
            n_call_edges = acc.n_call_edges + List.length b.b_calls;
            n_indirect = acc.n_indirect + b.b_indirect;
          })
        { acc with n_funcs = acc.n_funcs + 1 }
        fc.fc_blocks)
    { n_funcs = 0; n_blocks = 0; n_edges = 0; n_call_edges = 0; n_indirect = 0 }
    t.funcs
