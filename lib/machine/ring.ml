type record = {
  rip : int;
  insn : Insn.t;
  rsp : int;
  symbol : string option;
}

type t = {
  ring : record option array;
  mutable next : int;
  mutable total : int;
}

let create ~capacity =
  assert (capacity > 0);
  { ring = Array.make capacity None; next = 0; total = 0 }

let copy t = { t with ring = Array.copy t.ring }

let push t r =
  t.ring.(t.next) <- Some r;
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

(* The static part of a record: everything but [rsp]. *)
let resolve cpu ~rip =
  match Image.code_at cpu.Cpu.image rip with
  | Some (insn, _) ->
      let symbol =
        match Image.func_of_addr cpu.Cpu.image rip with
        | Some f -> Some f.Image.fname
        | None -> None
      in
      Some (insn, symbol)
  | None -> (
      match Hashtbl.find_opt cpu.Cpu.image.Image.builtin_addrs rip with
      | Some name -> Some (Insn.Nop 1, Some ("<" ^ name ^ ">"))
      | None -> None)

let ignore_step ~cycles:_ ~misses:_ ~called:_ = ()

(* Staged: the record's static part is resolved once per address; a fire
   only reads the (post-step) rsp and pushes. *)
let attach ?tee t cpu =
  Cpu.attach_observer ?tee cpu (fun ~rip ->
      match resolve cpu ~rip with
      | Some (insn, symbol) ->
          fun ~cycles:_ ~misses:_ ~called:_ ->
            push t { rip; insn; rsp = Cpu.reg_get cpu RSP; symbol }
      | None -> ignore_step)

let records t =
  (* Oldest first: the slot at [next] holds the oldest record once the ring
     has wrapped. *)
  let cap = Array.length t.ring in
  let out = ref [] in
  for i = cap - 1 downto 0 do
    let idx = (t.next + i) mod cap in
    match t.ring.(idx) with Some r -> out := r :: !out | None -> ()
  done;
  !out

let pp_tail t ~n =
  let rs = records t in
  let len = List.length rs in
  let tail = List.filteri (fun i _ -> i >= len - n) rs in
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%12x  %-28s rsp=%x%s" r.rip (Insn.to_string r.insn) r.rsp
           (match r.symbol with Some s -> "  ; " ^ s | None -> ""))
       tail)
