let annotate (insn : Insn.t) =
  let is_bt s = String.length s >= 5 && String.sub s 0 5 = "__bt_" in
  let is_cs s = String.length s >= 9 && String.sub s 0 9 = "__r2c_cs_" in
  match insn with
  | Insn.Push (Imm (Sym (s, _))) when is_bt s -> "  ; BTRA (booby-trapped return address)"
  | Insn.Push (Imm (Sym (s, _)))
    when String.length s >= 5 && String.sub s 0 5 = "__ra_" ->
      "  ; return address pre-write (Figure 3)"
  | Insn.Vload (_, { disp = Sym (s, _); _ })
  | Insn.Vload128 (_, { disp = Sym (s, _); _ })
  | Insn.Vload512 (_, { disp = Sym (s, _); _ })
    when is_cs s ->
      "  ; BTRA batch load (Figure 4)"
  | Insn.Mov (Reg R11, Mem { disp = Sym (s, _); _ })
    when String.length s >= 11 && String.sub s 0 11 = "__r2c_btdp_" ->
      "  ; BTDP array pointer"
  | Insn.Trap -> "  ; trap"
  | _ -> ""

(* Pre-link symbolic annotations are resolved away in a linked image, so
   artifact detection works structurally instead. *)
let annotate_resolved (img : Image.t) (insn : Insn.t) =
  let bt_target a =
    match Image.func_of_addr img a with
    | Some f when f.Image.is_booby_trap -> true
    | Some _ | None -> false
  in
  match insn with
  | Insn.Push (Imm (Abs a)) when bt_target a -> "  ; BTRA -> booby trap"
  | Insn.Push (Imm (Abs a)) when Image.code_at img a <> None ->
      "  ; return address pre-write (Figure 3)"
  | Insn.Vload (_, _) | Insn.Vload128 (_, _) | Insn.Vload512 (_, _) ->
      "  ; BTRA batch load (Figure 4)"
  | Insn.Trap -> "  ; trap"
  | _ -> annotate insn

let function_listing (img : Image.t) (f : Image.func_info) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%08x <%s>%s:\n" f.entry f.fname
       (if f.is_booby_trap then "  ; BOOBY TRAP FUNCTION" else ""));
  let addr = ref f.entry in
  while !addr < f.entry + f.code_len do
    match Image.code_at img !addr with
    | Some (insn, len) ->
        Buffer.add_string buf
          (Printf.sprintf "  %8x:  %-34s%s\n" !addr (Insn.to_string insn)
             (annotate_resolved img insn));
        addr := !addr + len
    | None -> addr := !addr + 1
  done;
  Buffer.contents buf

let summary (img : Image.t) =
  let traps =
    Array.fold_left (fun n f -> if f.Image.is_booby_trap then n + 1 else n) 0 img.Image.funcs
  in
  Printf.sprintf
    "text: %d bytes at 0x%x (%s), %d functions (%d booby traps)\n\
     data: %d bytes at 0x%x; stack: %d KB; unwind rows: %d functions, %d sites%s\n"
    img.Image.text_len img.Image.text_base
    (Perm.to_string img.Image.text_perm)
    (Array.length img.Image.funcs)
    traps img.Image.data_len img.Image.data_base
    (img.Image.stack_bytes / 1024)
    (Array.length img.Image.unwind_funcs)
    (Hashtbl.length (Image.sites img).unwind_sites)
    (if img.Image.shadow_stack then "; shadow-stack CFI" else "")

let image (img : Image.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (summary img);
  Buffer.add_char buf '\n';
  Array.iter
    (fun f ->
      Buffer.add_string buf (function_listing img f);
      Buffer.add_char buf '\n')
    img.Image.funcs;
  Buffer.contents buf
