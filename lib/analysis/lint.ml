open R2c_machine

type expect = {
  xom : bool;  (* text must be execute-only *)
  checked_btra : bool;  (* every call site carries a Section 7.3 post-check *)
  cph : bool;  (* readable function pointers must be trampolines *)
  booby_traps : bool;  (* the image must contain booby-trap functions *)
}

let expect_of_dconfig ?(cph = false) (cfg : R2c_core.Dconfig.t) =
  {
    xom = cfg.xom;
    checked_btra =
      (match cfg.btra with Some b -> b.check_after_return | None -> false);
    cph;
    booby_traps = cfg.booby_trap_funcs > 0;
  }

type finding = { rule : string; f_addr : int option; detail : string }

let finding_to_string f =
  match f.f_addr with
  | Some a -> Printf.sprintf "[%s] 0x%x: %s" f.rule a f.detail
  | None -> Printf.sprintf "[%s] %s" f.rule f.detail

type ctx = { img : Image.t; mem : Mem.t; cfg : Cfg.t; expect : expect }

(* --- Rule: W^X / execute-only page audit ------------------------------- *)

(* Page-level violations are aggregated per kind: a single missing mprotect
   seal covers the whole text mapping and would otherwise drown the report
   in per-page noise. *)
let rule_wx ctx =
  let img = ctx.img in
  let text_lo = img.Image.text_base in
  let text_hi = img.Image.text_base + img.Image.text_len in
  let wx = ref [] and noexec = ref [] and xom_read = ref [] and stray = ref [] in
  List.iter
    (fun (base, (p : Perm.t), _guard) ->
      let in_text = base + Addr.page_size > text_lo && base < text_hi in
      if p.write && p.exec then wx := base :: !wx;
      if in_text then begin
        if not p.exec then noexec := base :: !noexec;
        if ctx.expect.xom && p.read then xom_read := base :: !xom_read
      end
      else if p.exec then stray := base :: !stray)
    (Mem.page_perms ctx.mem);
  let agg what pages =
    match List.rev pages with
    | [] -> []
    | first :: _ as l ->
        [
          {
            rule = "wx";
            f_addr = Some first;
            detail = Printf.sprintf "%s (%d page(s))" what (List.length l);
          };
        ]
  in
  agg "page mapped writable and executable" !wx
  @ agg "text page without execute permission (mprotect seal missing)" !noexec
  @ agg "text page readable under an execute-only policy" !xom_read
  @ agg "executable page outside the text segment" !stray

(* --- Rule: BTRA call sites vs unwind rows ------------------------------ *)

let rule_btra ctx =
  let img = ctx.img in
  let { Image.unwind_sites; checked_sites } = Image.sites img in
  let ends = Hashtbl.create 4096 in
  Image.iter_insns img (fun a i l -> Hashtbl.replace ends (a + l) i);
  let fs = ref [] in
  let add addr fmt =
    Printf.ksprintf
      (fun detail -> fs := { rule = "btra"; f_addr = Some addr; detail } :: !fs)
      fmt
  in
  Hashtbl.iter
    (fun ra words ->
      (match Hashtbl.find_opt ends ra with
      | Some (Insn.Call _ | Insn.Call_ind _) -> ()
      | _ -> add ra "unwind site does not follow a call instruction");
      if words < 0 || words > 256 then add ra "implausible unwind-site words %d" words;
      if ctx.expect.checked_btra && not (Hashtbl.mem checked_sites ra) then
        add ra "call site lacks the expected post-return BTRA check";
      if Hashtbl.mem checked_sites ra then begin
        (* Section 7.3 pattern: mov r11, [rsp+d]; cmp r11, <booby trap>;
           jcc eq, ok; trap. *)
        match Image.code_at img ra with
        | Some (Insn.Mov (Reg R11, Mem _), l1) -> (
            let a2 = ra + l1 in
            match Image.code_at img a2 with
            | Some (Insn.Cmp (Reg R11, Imm (Abs v)), l2) -> (
                (match Image.func_of_addr img v with
                | Some f when f.Image.is_booby_trap -> ()
                | _ ->
                    add ra "post-return check compares against 0x%x, not a booby trap" v);
                let a3 = a2 + l2 in
                match Image.code_at img a3 with
                | Some (Insn.Jcc (Insn.Eq, _), l3) -> (
                    match Image.code_at img (a3 + l3) with
                    | Some (Insn.Trap, _) -> ()
                    | _ -> add ra "post-return check has no trap on the mismatch path")
                | _ -> add ra "post-return check is missing its conditional branch")
            | _ -> add ra "post-return check is missing the pre-BTRA comparison")
        | _ -> add ra "post-return check bytes missing at checked call site"
      end)
    unwind_sites;
  !fs

(* --- Rule: booby traps unreachable through direct control flow --------- *)

let rule_traps ctx =
  let img = ctx.img in
  let fs = ref [] in
  List.iter
    (fun (fc : Cfg.func) ->
      if not fc.fc_booby_trap then
        List.iter
          (fun (b : Cfg.block) ->
            List.iter
              (fun t ->
                match Image.func_of_addr img t with
                | Some f when f.Image.is_booby_trap ->
                    fs :=
                      {
                        rule = "traps";
                        f_addr = Some t;
                        detail =
                          Printf.sprintf "direct control transfer from %s into booby trap %s"
                            fc.fc_name f.Image.fname;
                      }
                      :: !fs
                | _ -> ())
              b.b_calls)
          fc.fc_blocks)
    ctx.cfg.Cfg.funcs;
  if
    ctx.expect.booby_traps
    && not (Array.exists (fun (f : Image.func_info) -> f.is_booby_trap) img.Image.funcs)
  then
    fs :=
      {
        rule = "traps";
        f_addr = None;
        detail = "configuration expects booby-trap functions but the image has none";
      }
      :: !fs;
  !fs

(* --- Rule: code-pointer hygiene in readable data ----------------------- *)

let trampoline_prefix = "__tramp_"

let rule_ptr ctx =
  let img = ctx.img in
  let text_lo = img.Image.text_base in
  let text_hi = img.Image.text_base + img.Image.text_len in
  let fs = ref [] in
  (* Walk the loaded data segment on the word grid; anything resolving
     into text must be a slot the linker sanctioned, and under CPH a
     sanctioned function entry must still be a trampoline or a trap. *)
  let addr = ref img.Image.data_base in
  let data_end = img.Image.data_base + img.Image.data_len in
  while !addr + 8 <= data_end do
    (match Mem.peek_u64 ctx.mem !addr with
    | Some v when v >= text_lo && v < text_hi ->
        if Hashtbl.mem (Lazy.force img.Image.code_ptr_slots) !addr then begin
          if ctx.expect.cph then
            match Image.func_of_addr img v with
            | Some f
              when f.entry = v && (not f.is_booby_trap)
                   && not (String.starts_with ~prefix:trampoline_prefix f.fname) ->
                fs :=
                  {
                    rule = "ptr";
                    f_addr = Some !addr;
                    detail =
                      Printf.sprintf "CPH: raw entry of %s readable in data" f.fname;
                  }
                  :: !fs
            | _ -> ()
        end
        else
          fs :=
            {
              rule = "ptr";
              f_addr = Some !addr;
              detail = Printf.sprintf "unsanctioned code pointer 0x%x in readable data" v;
            }
            :: !fs
    | _ -> ());
    addr := !addr + 8
  done;
  !fs

(* --- Rule: frame layout / unwind rows / memory budget ------------------ *)

let rule_frame ctx =
  let img = ctx.img in
  let fs = ref [] in
  let add addr fmt =
    Printf.ksprintf
      (fun detail -> fs := { rule = "frame"; f_addr = Some addr; detail } :: !fs)
      fmt
  in
  let prev_end = ref 0 in
  Array.iter
    (fun (entry, len, frame, post) ->
      if entry < !prev_end then add entry "unwind rows overlap";
      prev_end := entry + len;
      if entry < img.Image.text_base || entry + len > img.Image.text_base + img.Image.text_len
      then add entry "unwind row outside the text segment";
      if frame < 0 || frame land 7 <> 0 then add entry "frame size %d not 8-aligned" frame;
      if post < 0 || post > 64 then add entry "implausible post-offset %d words" post;
      (* Entry rsp is 8 mod 16; calls need 0 mod 16 (Section 7.4.2). *)
      if (frame + (8 * post)) land 15 <> 8 then
        add entry "frame %d + post %d breaks call-site stack alignment" frame post)
    img.Image.unwind_funcs;
  let pages n = (n + Addr.page_size - 1) / Addr.page_size in
  if img.Image.stack_bytes < Addr.page_size then
    add img.Image.data_base "stack allocation below one page";
  let est =
    pages img.Image.text_len + pages img.Image.data_len + pages img.Image.stack_bytes
  in
  if est > 65536 then
    add img.Image.text_base "static resident-set estimate %d pages exceeds the 256 MiB budget"
      est;
  !fs

(* --- Registry ----------------------------------------------------------- *)

let registry =
  [
    ("wx", "W^X / execute-only page-permission audit", rule_wx);
    ("btra", "BTRA call sites vs unwind rows and post-return checks", rule_btra);
    ("traps", "booby traps unreachable through direct control flow", rule_traps);
    ("ptr", "code-pointer hygiene in readable data", rule_ptr);
    ("frame", "frame layout, unwind rows and memory-budget sanity", rule_frame);
  ]

let run ~expect img =
  let cpu = Loader.load ~profile:Cost.epyc_rome img in
  let ctx = { img; mem = cpu.Cpu.mem; cfg = Cfg.recover img; expect } in
  List.concat_map (fun (_, _, rule) -> rule ctx) registry
  |> List.sort (fun a b ->
         compare (a.rule, a.f_addr, a.detail) (b.rule, b.f_addr, b.detail))

(* === IR-level rules (Dataflow-powered) ================================== *)

type ir_finding = {
  ir_rule : string;
  ir_func : string;
  ir_block : Ir.label;
  ir_instr : int option;
  ir_detail : string;
}

let ir_finding_to_string f =
  Printf.sprintf "[%s] %s.L%d%s: %s" f.ir_rule f.ir_func f.ir_block
    (match f.ir_instr with Some i -> Printf.sprintf "#%d" i | None -> "(term)")
    f.ir_detail

let block_arr (f : Ir.func) = Array.of_list f.Ir.blocks

(* --- Rule: use-before-def (may-uninit) ----------------------------------- *)

let ir_rule_ubd (f : Ir.func) =
  let blocks = block_arr f in
  List.map
    (fun (v, bi, k) ->
      let b = blocks.(bi) in
      let nbody = List.length b.Ir.body in
      {
        ir_rule = "use-before-def";
        ir_func = f.Ir.name;
        ir_block = b.Ir.lbl;
        ir_instr = (if k < nbody then Some k else None);
        ir_detail =
          Printf.sprintf "var %d may be read before any definition reaches it" v;
      })
    (Validate.uninit_reads f)

(* --- Rule: dead-store (liveness) ---------------------------------------- *)

(* Only side-effect-free definitions are dead stores; calls and loads
   have effects (or can fault) even when the result is unused, and
   Div/Rem can trap on a zero divisor. *)
let pure_def = function
  | Ir.Mov (v, _) | Ir.Cmp (v, _, _, _) | Ir.Slot_addr (v, _) -> Some v
  | Ir.Binop (v, op, _, _) -> (
      match op with Ir.Div | Ir.Rem -> None | _ -> Some v)
  | Ir.Load _ | Ir.Load8 _ | Ir.Store _ | Ir.Store8 _ | Ir.Call _ -> None

let ir_rule_dead_store (f : Ir.func) =
  let lv = Dataflow.Liveness.compute f in
  let blocks = block_arr f in
  let fs = ref [] in
  Array.iteri
    (fun bi b ->
      let before = Dataflow.Liveness.before lv f bi in
      List.iteri
        (fun k instr ->
          match pure_def instr with
          | Some v when not (Dataflow.Iset.mem v before.(k + 1)) ->
              fs :=
                {
                  ir_rule = "dead-store";
                  ir_func = f.Ir.name;
                  ir_block = b.Ir.lbl;
                  ir_instr = Some k;
                  ir_detail = Printf.sprintf "var %d is defined but never read" v;
                }
                :: !fs
          | _ -> ())
        b.Ir.body)
    blocks;
  List.rev !fs

(* --- Rules: const-div-by-zero + oob-const-slot-offset (CCP) ------------ *)

(* Both walk the same conditional-constant environments, so they share
   one pass; their findings still name distinct rules. *)
let ir_rules_ccp (f : Ir.func) =
  let cp = Dataflow.Constprop.compute f in
  let blocks = block_arr f in
  let fs = ref [] in
  let add rule b k fmt =
    Printf.ksprintf
      (fun ir_detail ->
        fs :=
          {
            ir_rule = rule;
            ir_func = f.Ir.name;
            ir_block = b.Ir.lbl;
            ir_instr = Some k;
            ir_detail;
          }
          :: !fs)
      fmt
  in
  Array.iteri
    (fun bi b ->
      if cp.Dataflow.Constprop.executable.(bi) then begin
        let envs = Dataflow.Constprop.before cp f bi in
        let slot_access b k base off width what =
          match Dataflow.Constprop.eval envs.(k) base with
          | Dataflow.Constprop.Cslot (i, d) ->
              let lo = d + off in
              if lo < 0 || lo + width > f.Ir.slots.(i) then
                add "oob-const-slot-offset" b k
                  "%s at slot %d offset %d (width %d) escapes its %d byte(s)" what i lo
                  width f.Ir.slots.(i)
          | _ -> ()
        in
        List.iteri
          (fun k instr ->
            match instr with
            | Ir.Binop (_, (Ir.Div | Ir.Rem), _, rhs) -> (
                match Dataflow.Constprop.eval envs.(k) rhs with
                | Dataflow.Constprop.Cconst 0 ->
                    add "const-div-by-zero" b k "divisor is the constant 0"
                | _ -> ())
            | Ir.Load (_, base, off) -> slot_access b k base off 8 "load"
            | Ir.Load8 (_, base, off) -> slot_access b k base off 1 "load"
            | Ir.Store (base, off, _) -> slot_access b k base off 8 "store"
            | Ir.Store8 (base, off, _) -> slot_access b k base off 1 "store"
            | _ -> ())
          b.Ir.body
      end)
    blocks;
  List.rev !fs

let run_ir (p : Ir.program) =
  List.concat_map
    (fun f ->
      let ccp = ir_rules_ccp f in
      let by_rule name =
        List.filter (fun fd -> fd.ir_rule = name) ccp
      in
      ir_rule_ubd f @ ir_rule_dead_store f
      @ by_rule "const-div-by-zero"
      @ by_rule "oob-const-slot-offset")
    p.Ir.funcs
