(* Tier-3 template JIT.

   Hot functions — detected by cheap per-function call and loop-backedge
   counters — are compiled from their placed bodies into flat arrays of
   OCaml closures: one closure per instruction, straight-line
   basic blocks fused into arrays executed without any per-step decode,
   dispatch-table probe, or rip store. Execution enters compiled code at
   function entries and at any basic-block leader (which is what makes loop
   backedges OSR entry points), and leaves it — materializing the full
   interpreter frame: rip, the shared register file, call depth, and the
   cycle/insn/icache counters — at fuel exhaustion, any fault, a builtin
   call, a transfer out of the compiled region, or a deopt on an
   instruction the template compiler does not handle (unresolved symbols).
   Injector attachment deopts one level higher: [Cpu.run] routes it to the
   reference tier before tier 3 is ever consulted. An attached observer
   does not: an observed run executes observed templates, which fire the
   observer's site after every instruction with the step's deltas. They
   wrap the function's plain templates closure by closure — nothing is
   compiled twice — and are built per function the first time an observed
   run enters it, so the unobserved templates stay exactly as they are.

   Everything not compiled runs through one cold loop
   ([Cpu.Internal.straight]): the bodies' shared decoded slots and the
   shared interpreter core. It hands control back only after a transfer (a taken
   branch, call, return or builtin) onto a function entry or installed
   leader, or backward by less than the longest body; the slot table is
   probed there, on entry to the runner and after compiled code exits.
   Those are the places a function entry, a loop backedge or a compiled
   leader is reached, so the call and backedge counters fire where a
   per-step probe would fire them — save straight-line fall-through from
   the end of one body into the next function's entry, which counts no
   call. Straight-line code pays one compare. With both thresholds at
   [max_int] (JIT off) the runner has no slot table at all: it is the cold
   loop alone.

   The bit-identicality contract is absolute: every cycle is accumulated by
   the same float additions in the same order as [Cpu.execute], base costs
   come from the same [Cost.base_cost], and the cold/deopt path funnels
   through [Cpu.Internal.execute] itself. Cycles are kept in a one-slot
   float array while compiled code runs (a boxed-float record store per
   instruction is the single biggest interpreter cost) and flushed back to
   [Cpu.t] on every exit, including exceptional ones.

   Compiled code is CPU-independent: closures take the machine context as
   an argument and capture only constants. So one image's code serves all
   of it: it is published on the image ([Image.t.jit], one per cost
   profile) by the first run that needs it, and every process, respawn and
   pool worker of the image — in any domain — runs the code the others
   compiled. Hotness counters and statistics stay per attachment.

   Compiling is split the way linking is: a plan, derived once per body
   and cost profile and kept on the body ([Image.body.b_code]), and its
   instantiation at one placement. The plan holds everything that depends
   only on the body — the scan, the leaders and blocks as body offsets,
   the fetch-accounting constants, the effect closures that name no
   address; instantiating it builds the closures that bake in the
   placement's addresses — icache lines, exec probes at block entries and
   page transitions, branch and call targets, relocated operands — so the
   templates are exactly as fast as ones compiled for that placement
   alone. Every rotation of a program places the same bodies, so its
   first run adopts each hot function's plan on first entry instead of
   compiling it after the thresholds. A private cache ([create_cache])
   serves the one image and profile it was made for, and keeps its own
   plans. [poison] marks a plan stale: it is never
   instantiated again, and the next hot entry recompiles — stale code
   never runs. *)

exception Unsupported

type config = { call_threshold : int; backedge_threshold : int }

let default_config = { call_threshold = 8; backedge_threshold = 24 }
let never = { call_threshold = max_int; backedge_threshold = max_int }
let never_compiles cfg = cfg.call_threshold = max_int && cfg.backedge_threshold = max_int

(* Global default switch, consulted by Loader/Process at attach time.
   R2C_JIT=0 turns compilation off fleet-wide without touching call
   sites. *)
let enabled_ref =
  ref
    (match Sys.getenv_opt "R2C_JIT" with
    | Some ("0" | "false" | "off" | "no") -> false
    | _ -> true)

let enabled () = !enabled_ref

(* The machine context threaded through every compiled closure. [t] to
   [ic] are aliases into the owning [Cpu.t]. [cyc.(0)] is the unboxed
   cycle accumulator, the live counter while compiled code runs. The rest
   is for observed templates: the instruction in flight ([o_addr], -1
   between instructions) and the cycle count ([cyc.(1)]) and icache miss
   count ([o_miss]) before it. *)
type ctx = {
  t : Cpu.t;
  regs : int array;
  ymm : int array;
  mem : Mem.t;
  ic : Icache.t;
  cyc : float array;
  mutable o_addr : int;
  mutable o_miss : int;
}

(* A fused basic block: [b_n] instructions at [b_addrs], the first
   [b_n - 1] as effect closures and the last as the terminator. The
   terminator returns the successor block index, [-1] for a transfer out
   of the block structure (rip has been set), or [-2] for a deopt (rip set
   to the instruction the interpreter must retry). *)
type block = {
  b_addrs : int array;
  b_ops : (ctx -> unit) array;
  b_term : ctx -> int;
  b_n : int;
}

(* One instruction's fetch-accounting constants (see [charge]). *)
type acct = { cb : float; cf : float; pen : float }

(* A function's compile plan: what compiling it needs that depends only on
   its body and the cost profile, derived once per body and shared by
   every placement of it. Per scanned instruction (the body's instructions
   with a nonzero length, in order, up to its length): its index in the
   body, its body offset, its relocation (or -1), its fetch accounting, and its
   effect closure when that depends on no address (no relocation, no
   fault that names its rip). The block structure is body-relative: the
   leaders by offset, each block's first and last scanned instruction.
   [p_tgt] keys a placement's fit: for each direct jump through an
   external or to an absolute address, its target offset when it falls
   inside the body, else -1 — such a jump landing inside the body (a
   hand-patched image) makes a plan that fits only placements agreeing on
   it. [p_stale] is set by
   [poison]: a stale plan is never instantiated again. *)
type plan = {
  p_ins : int array;
  p_offs : int array;
  p_rel : int array;
  p_acct : acct array;
  p_eff : ((ctx -> unit) * bool) option array;
  p_blocks : (int * int) array;
  p_bid : (int, int) Hashtbl.t;  (* leader offset -> block index *)
  p_leaders : (int * int) array;  (* (leader offset, block index) *)
  p_direct : int array;  (* scanned indices of the direct jumps [fits] checks *)
  p_tgt : int array;  (* per such jump *)
  mutable p_stale : bool;
}

(* One compiled function: a plan instantiated at one placement. [f_ci] is
   its chunk's index in the image ([Image.t.chunks], the decoder's and the
   observer's tables). [f_blocks] is mutable for [poison]. The observed
   templates wrap [f_blocks] on first observed entry; an atomic cell
   rather than a [Lazy] because the function is shared across domains,
   where two racing builds just produce equivalent arrays. *)
type cfunc = {
  f_ci : int;
  f_plan : plan;
  mutable f_blocks : block array;
  f_obs : block array option Atomic.t;
  f_leaders : (int * int) array;  (* (address, block index) per leader *)
}

type stats = {
  mutable compiled : int;
  mutable revalidated : int;
  mutable invalidated : int;
  mutable entry_enters : int;
  mutable osr_enters : int;
  mutable deopts : int;
  mutable tier3_insns : int;
  mutable interp_insns : int;
}

let fresh_stats () =
  {
    compiled = 0;
    revalidated = 0;
    invalidated = 0;
    entry_enters = 0;
    osr_enters = 0;
    deopts = 0;
    tier3_insns = 0;
    interp_insns = 0;
  }

(* ------------------------------------------------------------------ *)
(* Template compilation: one closure per instruction.                  *)
(* ------------------------------------------------------------------ *)

let rsp_i = Insn.reg_index Insn.RSP
let rax_i = Insn.reg_index Insn.RAX

let imm_val = function Insn.Abs v -> v | Insn.Sym _ -> raise Unsupported

let ev_mem (m : Insn.mem_operand) : ctx -> int =
  let d = imm_val m.Insn.disp in
  match (m.Insn.base, m.Insn.index) with
  | None, None -> fun _ -> d
  | Some b, None ->
      let bi = Insn.reg_index b in
      fun c -> Array.unsafe_get c.regs bi + d
  | None, Some (r, s) ->
      let ri = Insn.reg_index r and sf = Insn.scale_factor s in
      fun c -> (Array.unsafe_get c.regs ri * sf) + d
  | Some b, Some (r, s) ->
      let bi = Insn.reg_index b
      and ri = Insn.reg_index r
      and sf = Insn.scale_factor s in
      fun c ->
        Array.unsafe_get c.regs bi + (Array.unsafe_get c.regs ri * sf) + d

(* Operand evaluators return (closure, can-fault). The injector hook in
   [Cpu.eval_op] is an identity here: injector attachment forces the
   reference tier, so compiled code never coexists with one. *)
let ev_op (o : Insn.operand) : (ctx -> int) * bool =
  match o with
  | Insn.Imm i ->
      let v = imm_val i in
      ((fun _ -> v), false)
  | Insn.Reg r ->
      let i = Insn.reg_index r in
      ((fun c -> Array.unsafe_get c.regs i), false)
  | Insn.Mem m ->
      let ea = ev_mem m in
      ((fun c -> Mem.read_u64 c.mem (ea c)), true)

let ev_op8 (o : Insn.operand) : (ctx -> int) * bool =
  match o with
  | Insn.Imm i ->
      let v = imm_val i land 0xff in
      ((fun _ -> v), false)
  | Insn.Reg r ->
      let i = Insn.reg_index r in
      ((fun c -> Array.unsafe_get c.regs i land 0xff), false)
  | Insn.Mem m ->
      let ea = ev_mem m in
      ((fun c -> Mem.read_u8 c.mem (ea c) land 0xff), true)

let ev_cond (cnd : Insn.cond) : ctx -> bool =
  match cnd with
  | Insn.Eq -> fun c -> c.t.Cpu.cmp_l = c.t.Cpu.cmp_r
  | Insn.Ne -> fun c -> c.t.Cpu.cmp_l <> c.t.Cpu.cmp_r
  | Insn.Lt -> fun c -> c.t.Cpu.cmp_l < c.t.Cpu.cmp_r
  | Insn.Le -> fun c -> c.t.Cpu.cmp_l <= c.t.Cpu.cmp_r
  | Insn.Gt -> fun c -> c.t.Cpu.cmp_l > c.t.Cpu.cmp_r
  | Insn.Ge -> fun c -> c.t.Cpu.cmp_l >= c.t.Cpu.cmp_r

let vload n i (m : Insn.mem_operand) =
  let ea = ev_mem m in
  let base = i * 8 in
  fun c ->
    let a = ea c in
    for k = 0 to n - 1 do
      c.ymm.(base + k) <- Mem.read_u64 c.mem (a + (8 * k))
    done

let vstore n (m : Insn.mem_operand) i =
  let ea = ev_mem m in
  let base = i * 8 in
  fun c ->
    let a = ea c in
    for k = 0 to n - 1 do
      Mem.write_u64 c.mem (a + (8 * k)) c.ymm.(base + k)
    done

(* Effect closure for a non-control instruction, plus whether it can
   fault (which decides whether a rip-materializing handler wraps it).
   Every arm replicates the corresponding [Cpu.execute] arm exactly,
   including evaluation order at fault points. *)
let compile_effect ~addr (insn : Insn.t) : (ctx -> unit) * bool =
  match insn with
  | Insn.Mov (Insn.Reg r, Insn.Imm i) ->
      let ri = Insn.reg_index r and v = imm_val i in
      ((fun c -> Array.unsafe_set c.regs ri v), false)
  | Insn.Mov (Insn.Reg r, Insn.Reg s) ->
      let ri = Insn.reg_index r and si = Insn.reg_index s in
      ((fun c -> Array.unsafe_set c.regs ri (Array.unsafe_get c.regs si)), false)
  | Insn.Mov (Insn.Reg r, Insn.Mem m) ->
      let ri = Insn.reg_index r and ea = ev_mem m in
      ((fun c -> Array.unsafe_set c.regs ri (Mem.read_u64 c.mem (ea c))), true)
  | Insn.Mov (Insn.Mem m, src) ->
      let ev, _ = ev_op src in
      let ea = ev_mem m in
      ( (fun c ->
          let v = ev c in
          Mem.write_u64 c.mem (ea c) v),
        true )
  | Insn.Mov (Insn.Imm _, _) -> raise Unsupported
  | Insn.Mov8 (Insn.Reg r, src) ->
      let ri = Insn.reg_index r in
      let ev, cf = ev_op8 src in
      ((fun c -> Array.unsafe_set c.regs ri (ev c)), cf)
  | Insn.Mov8 (Insn.Mem m, src) ->
      let ev, _ = ev_op8 src in
      let ea = ev_mem m in
      ( (fun c ->
          let v = ev c in
          Mem.write_u8 c.mem (ea c) v),
        true )
  | Insn.Mov8 (Insn.Imm _, _) -> raise Unsupported
  | Insn.Lea (r, m) ->
      let ri = Insn.reg_index r and ea = ev_mem m in
      ((fun c -> Array.unsafe_set c.regs ri (ea c)), false)
  | Insn.Push o ->
      let ev, _ = ev_op o in
      ( (fun c ->
          let v = ev c in
          let rsp = Array.unsafe_get c.regs rsp_i - 8 in
          Mem.write_u64 c.mem rsp v;
          Array.unsafe_set c.regs rsp_i rsp),
        true )
  | Insn.Pop r ->
      let ri = Insn.reg_index r in
      ( (fun c ->
          let rsp = Array.unsafe_get c.regs rsp_i in
          let v = Mem.read_u64 c.mem rsp in
          Array.unsafe_set c.regs rsp_i (rsp + 8);
          Array.unsafe_set c.regs ri v),
        true )
  | Insn.Binop (op, r, o) ->
      let ri = Insn.reg_index r in
      let ev, cf = ev_op o in
      let eff =
        match op with
        | Insn.Add ->
            fun c ->
              Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri + ev c)
        | Insn.Sub ->
            fun c ->
              Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri - ev c)
        | Insn.Imul ->
            fun c ->
              Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri * ev c)
        | Insn.And ->
            fun c ->
              Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri land ev c)
        | Insn.Or ->
            fun c ->
              Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri lor ev c)
        | Insn.Xor ->
            fun c ->
              Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri lxor ev c)
        | Insn.Shl ->
            fun c ->
              Array.unsafe_set c.regs ri
                (Array.unsafe_get c.regs ri lsl (ev c land 63))
        | Insn.Shr ->
            fun c ->
              Array.unsafe_set c.regs ri
                (Array.unsafe_get c.regs ri lsr (ev c land 63))
        | Insn.Sar ->
            fun c ->
              Array.unsafe_set c.regs ri
                (Array.unsafe_get c.regs ri asr (ev c land 63))
      in
      (eff, cf)
  | Insn.Div (r, o) ->
      let ri = Insn.reg_index r in
      let ev, _ = ev_op o in
      ( (fun c ->
          let d = ev c in
          if d = 0 then Fault.raise_fault (Division_by_zero { rip = addr });
          Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri / d)),
        true )
  | Insn.Rem (r, o) ->
      let ri = Insn.reg_index r in
      let ev, _ = ev_op o in
      ( (fun c ->
          let d = ev c in
          if d = 0 then Fault.raise_fault (Division_by_zero { rip = addr });
          Array.unsafe_set c.regs ri (Array.unsafe_get c.regs ri mod d)),
        true )
  | Insn.Neg r ->
      let ri = Insn.reg_index r in
      ((fun c -> Array.unsafe_set c.regs ri (-Array.unsafe_get c.regs ri)), false)
  | Insn.Cmp (a, b) ->
      let eva, fa = ev_op a in
      let evb, fb = ev_op b in
      ( (fun c ->
          c.t.Cpu.cmp_l <- eva c;
          c.t.Cpu.cmp_r <- evb c),
        fa || fb )
  | Insn.Setcc (cnd, r) ->
      let ri = Insn.reg_index r in
      let tst = ev_cond cnd in
      ((fun c -> Array.unsafe_set c.regs ri (if tst c then 1 else 0)), false)
  | Insn.Nop _ -> ((fun _ -> ()), false)
  | Insn.Trap -> ((fun _ -> Fault.raise_fault (Booby_trap { addr })), true)
  | Insn.Vload (i, m) -> (vload 4 i m, true)
  | Insn.Vstore (m, i) -> (vstore 4 m i, true)
  | Insn.Vload128 (i, m) -> (vload 2 i m, true)
  | Insn.Vstore128 (m, i) -> (vstore 2 m i, true)
  | Insn.Vload512 (i, m) -> (vload 8 i m, true)
  | Insn.Vstore512 (m, i) -> (vstore 8 m i, true)
  | Insn.Vzeroupper ->
      ( (fun c ->
          for i = 0 to 15 do
            for k = 2 to 7 do
              c.ymm.((i * 8) + k) <- 0
            done
          done),
        false )
  | Insn.Jmp _ | Insn.Jmp_ind _ | Insn.Jcc _ | Insn.Call _ | Insn.Call_ind _
  | Insn.Ret | Insn.Halt ->
      (* control instructions are terminators, never plain effects *)
      raise Unsupported

(* Fetch accounting, precomputed per instruction: the one place compiled
   code charges an instruction's cycles, observed or not. The float
   additions run in exactly [Cpu.execute]'s order — base, then fetch,
   then the miss penalty term — on the live [cyc] slot; float addition is
   non-associative, so the order is part of the contract. The constants
   sit in one unboxed record per instruction, shared by every placement
   of its plan: the closure captures one pointer, not three boxed
   floats. *)

let acct (p : Cost.profile) insn ~size =
  {
    cb = Cost.base_cost p insn;
    cf = float_of_int size /. p.Cost.fetch_bytes_per_cycle;
    pen = p.Cost.icache_miss_penalty;
  }

let line_shift (p : Cost.profile) =
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
  log2 0 p.Cost.icache_line_bytes

let[@inline] charge c a m =
  Array.unsafe_set c.cyc 0 (Array.unsafe_get c.cyc 0 +. a.cb +. a.cf +. (float_of_int m *. a.pen));
  let t = c.t in
  t.Cpu.insns <- t.Cpu.insns + 1

(* One instruction's template: its fetch accounting, then [eff]. Exec-
   permission probes ([check]) are kept only at block entries and page
   transitions: text protections can only change at builtin boundaries,
   which always exit compiled code, so within one runner activation the
   elided same-page probes are provably no-ops. A template that can fault
   materializes rip before the fault propagates. The icache line is baked
   in when the fetch sits inside one. *)
let compile_op ~ls ~check ~addr ~size (a : acct) (eff, can_fault) : ctx -> unit =
  let first = addr lsr ls and last = (addr + size - 1) lsr ls in
  if first = last then
    if check then fun c ->
      try
        Mem.check_exec c.mem addr;
        charge c a (Icache.access_line c.ic first);
        eff c
      with Fault.Fault _ as e ->
        c.t.Cpu.rip <- addr;
        raise e
    else if can_fault then fun c ->
      try
        charge c a (Icache.access_line c.ic first);
        eff c
      with Fault.Fault _ as e ->
        c.t.Cpu.rip <- addr;
        raise e
    else fun c ->
      charge c a (Icache.access_line c.ic first);
      eff c
  else if check then fun c ->
    try
      Mem.check_exec c.mem addr;
      charge c a (Icache.access c.ic ~addr ~len:size);
      eff c
    with Fault.Fault _ as e ->
      c.t.Cpu.rip <- addr;
      raise e
  else if can_fault then fun c ->
    try
      charge c a (Icache.access c.ic ~addr ~len:size);
      eff c
    with Fault.Fault _ as e ->
      c.t.Cpu.rip <- addr;
      raise e
  else fun c ->
    charge c a (Icache.access c.ic ~addr ~len:size);
    eff c

(* A terminator's wrapper: the exec probe and rip materialization of
   [compile_op] around [core], which charges the fetch itself. *)
let guard ~check ~can_fault ~addr (core : ctx -> 'a) : ctx -> 'a =
  if check then fun c ->
    try
      Mem.check_exec c.mem addr;
      core c
    with Fault.Fault _ as e ->
      c.t.Cpu.rip <- addr;
      raise e
  else if can_fault then fun c ->
    try core c
    with Fault.Fault _ as e ->
      c.t.Cpu.rip <- addr;
      raise e
  else core

(* do_call / shadow_check mirrors, with rip passed explicitly (the
   interpreter reads the already-correct [t.rip]; compiled code does not
   maintain it). *)
let do_call_c c ~addr ~target ~next =
  let t = c.t in
  t.Cpu.calls <- t.Cpu.calls + 1;
  let d = t.Cpu.depth + 1 in
  t.Cpu.depth <- d;
  if d > t.Cpu.max_depth then t.Cpu.max_depth <- d;
  let rsp = Array.unsafe_get c.regs rsp_i in
  if t.Cpu.strict_align && rsp land 15 <> 0 then
    Fault.raise_fault (Misaligned_stack { rip = addr; rsp });
  if t.Cpu.image.Image.shadow_stack then t.Cpu.shadow := next :: !(t.Cpu.shadow);
  let rsp' = rsp - 8 in
  Mem.write_u64 c.mem rsp' next;
  Array.unsafe_set c.regs rsp_i rsp';
  t.Cpu.rip <- target

let shadow_check_c c ~addr ra =
  let t = c.t in
  if t.Cpu.image.Image.shadow_stack then begin
    match !(t.Cpu.shadow) with
    | expected :: rest ->
        if ra <> expected then
          Fault.raise_fault (Cfi_violation { rip = addr; expected; got = ra });
        t.Cpu.shadow := rest
    | [] -> Fault.raise_fault (Cfi_violation { rip = addr; expected = 0; got = ra })
  end

let deopt_term : ctx -> int = fun _ -> -2

(* Fills the op slots of a block before they are compiled. *)
let deopt_op : ctx -> unit = fun _ -> ()

(* Terminator for a control instruction ending a block. [bid] maps
   in-function leader addresses to block indices, and everything else to
   -1; targets outside it set rip and exit the runner. [eff] is the
   instruction's effect, for one that is no control instruction. *)
let compile_term p ~ls ~check ~addr ~size ~(a : acct) insn ~eff ~(bid : int -> int) : ctx -> int =
  let next = addr + size in
  let acct = compile_op ~ls ~check:false ~addr ~size a ((fun _ -> ()), false) in
  let fall = bid next in
  match insn with
  | Insn.Jmp (Insn.TAbs tgt) -> (
      match bid tgt with
      | k when k >= 0 ->
          guard ~check ~can_fault:false ~addr (fun c ->
              acct c;
              k)
      | _ ->
          guard ~check ~can_fault:false ~addr (fun c ->
              acct c;
              c.t.Cpu.rip <- tgt;
              -1))
  | Insn.Jmp_ind o ->
      let ev, cf = ev_op o in
      guard ~check ~can_fault:cf ~addr (fun c ->
          acct c;
          c.t.Cpu.rip <- ev c;
          -1)
  | Insn.Jcc (cnd, Insn.TAbs tgt) -> (
      let tst = ev_cond cnd in
      let delta = p.Cost.jcc_taken -. p.Cost.jcc_not_taken in
      match bid tgt with
      | k when k >= 0 ->
          guard ~check ~can_fault:false ~addr (fun c ->
              acct c;
              if tst c then begin
                Array.unsafe_set c.cyc 0 (Array.unsafe_get c.cyc 0 +. delta);
                k
              end
              else if fall >= 0 then fall
              else begin
                c.t.Cpu.rip <- next;
                -1
              end)
      | _ ->
          guard ~check ~can_fault:false ~addr (fun c ->
              acct c;
              if tst c then begin
                Array.unsafe_set c.cyc 0 (Array.unsafe_get c.cyc 0 +. delta);
                c.t.Cpu.rip <- tgt;
                -1
              end
              else if fall >= 0 then fall
              else begin
                c.t.Cpu.rip <- next;
                -1
              end))
  | Insn.Call (Insn.TAbs tgt) ->
      guard ~check ~can_fault:true ~addr (fun c ->
          acct c;
          do_call_c c ~addr ~target:tgt ~next;
          -1)
  | Insn.Call_ind o ->
      let ev, _ = ev_op o in
      guard ~check ~can_fault:true ~addr (fun c ->
          acct c;
          let tgt = ev c in
          do_call_c c ~addr ~target:tgt ~next;
          -1)
  | Insn.Ret ->
      guard ~check ~can_fault:true ~addr (fun c ->
          acct c;
          let t = c.t in
          let rsp = Array.unsafe_get c.regs rsp_i in
          let ra = Mem.read_u64 c.mem rsp in
          shadow_check_c c ~addr ra;
          Array.unsafe_set c.regs rsp_i (rsp + 8);
          t.Cpu.depth <-
            (let d = t.Cpu.depth - 1 in
             if d < 0 then 0 else d);
          t.Cpu.rip <- ra;
          -1)
  | Insn.Halt ->
      guard ~check ~can_fault:false ~addr (fun c ->
          acct c;
          let t = c.t in
          t.Cpu.halted <- true;
          t.Cpu.exit_code <- Array.unsafe_get c.regs rax_i;
          t.Cpu.rip <- addr;
          -1)
  | Insn.Jmp (Insn.TSym _) | Insn.Jcc (_, Insn.TSym _) | Insn.Call (Insn.TSym _)
    ->
      (* unresolved targets fault in the interpreter; deopt reproduces it *)
      deopt_term
  | _ ->
      (* a non-control instruction in terminator position (block split
         before a leader, or the last instruction of the body) *)
      let op = compile_op ~ls ~check ~addr ~size a (eff ()) in
      if fall >= 0 then fun c ->
        op c;
        fall
      else fun c ->
        op c;
        c.t.Cpu.rip <- next;
        -1

(* ------------------------------------------------------------------ *)
(* Function bodies: plan once per body, instantiate per placement.    *)
(* ------------------------------------------------------------------ *)

let is_control = function
  | Insn.Jmp _ | Insn.Jmp_ind _ | Insn.Jcc _ | Insn.Call _ | Insn.Call_ind _
  | Insn.Ret | Insn.Halt ->
      true
  | _ -> false

(* Scanned instruction [k] — body instruction [ins.(k)], relocation
   [rel.(k)] — as placement [c] resolves it. *)
let placed (c : Image.chunk) ~ins ~rel k =
  let b = c.Image.c_body in
  if rel.(k) < 0 then b.Image.b_insns.(ins.(k)) else Image.resolve c b.Image.b_relocs.(rel.(k))

let placed_insn plan c k = placed c ~ins:plan.p_ins ~rel:plan.p_rel k

(* A direct jump's target as a body offset when it lands inside the body's
   [len] bytes, else -1. *)
let direct_target (c : Image.chunk) ~len = function
  | Insn.Jmp (Insn.TAbs t) | Insn.Jcc (_, Insn.TAbs t) ->
      let rel = t - c.Image.c_entry in
      if rel >= 0 && rel < len then rel else -1
  | _ -> -1

(* The plan of the function placed as [c], [len] bytes long: its body's
   instructions with a nonzero length, from the entry on — exactly the
   chain of slots the fetch sees from the entry — carved into blocks.
   Leaders: the entry, every branch target inside the body, and the
   fall-through successor of every control instruction. Each leader is an
   OSR entry point. Raises [Unsupported] on an empty body. *)
let plan_func (p : Cost.profile) (c : Image.chunk) ~len =
  let b = c.Image.c_body in
  let ins = ref [] and offs = ref [] and rels = ref [] in
  let off = ref 0 and r = ref 0 in
  Array.iteri
    (fun i _ ->
      let size = b.Image.b_sizes.(i) in
      let rel =
        if !r < Array.length b.Image.b_relocs && b.Image.b_relocs.(!r).Image.r_index = i then begin
          incr r;
          !r - 1
        end
        else -1
      in
      if size > 0 && !off < len then begin
        ins := i :: !ins;
        offs := !off :: !offs;
        rels := rel :: !rels
      end;
      off := !off + size)
    b.Image.b_insns;
  let p_ins = Array.of_list (List.rev !ins) in
  let p_offs = Array.of_list (List.rev !offs) in
  let p_rel = Array.of_list (List.rev !rels) in
  let n = Array.length p_ins in
  if n = 0 then raise Unsupported;
  let insns = Array.init n (placed c ~ins:p_ins ~rel:p_rel) in
  (* A jump whose every symbol is the body's own lands at the same offset
     in every placement; the others are what [fits] checks. *)
  let local k =
    p_rel.(k) >= 0 && Array.for_all (fun r -> r >= 0) b.Image.b_relocs.(p_rel.(k)).Image.r_refs
  in
  let size k = b.Image.b_sizes.(p_ins.(k)) in
  let starts = Hashtbl.create (2 * n) in
  Array.iter (fun o -> Hashtbl.replace starts o ()) p_offs;
  let leader = Hashtbl.create 16 in
  let mark o = if Hashtbl.mem starts o then Hashtbl.replace leader o () in
  Hashtbl.replace leader 0 ();
  let direct = ref [] in
  Array.iteri
    (fun k insn ->
      if is_control insn then begin
        mark (p_offs.(k) + size k);
        match insn with
        | Insn.Jmp (Insn.TAbs _) | Insn.Jcc (_, Insn.TAbs _) ->
            if not (local k) then direct := k :: !direct;
            mark (direct_target c ~len insn)
        | _ -> ()
      end)
    insns;
  (* Carve the scan into maximal straight-line blocks. *)
  let blocks = ref [] in
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let j = ref s in
    while not (is_control insns.(!j) || !j + 1 >= n || Hashtbl.mem leader p_offs.(!j + 1)) do
      incr j
    done;
    blocks := (s, !j) :: !blocks;
    i := !j + 1
  done;
  let p_blocks = Array.of_list (List.rev !blocks) in
  let p_bid = Hashtbl.create (2 * Array.length p_blocks) in
  Array.iteri (fun k (s, _) -> Hashtbl.replace p_bid p_offs.(s) k) p_blocks;
  (* Effects that name no address are built here, once for every
     placement; the rest per placement. *)
  let shared k =
    match insns.(k) with
    | Insn.Div _ | Insn.Rem _ | Insn.Trap -> None
    | _ when p_rel.(k) >= 0 -> None
    | insn -> ( try Some (compile_effect ~addr:0 insn) with Unsupported -> None)
  in
  let p_direct = Array.of_list (List.rev !direct) in
  {
    p_ins;
    p_offs;
    p_rel;
    p_acct = Array.mapi (fun k insn -> acct p insn ~size:(size k)) insns;
    p_eff = Array.init n (fun k -> if is_control insns.(k) then None else shared k);
    p_blocks;
    p_bid;
    p_leaders = Array.mapi (fun k (s, _) -> (p_offs.(s), k)) p_blocks;
    p_direct;
    p_tgt = Array.map (fun k -> direct_target c ~len insns.(k)) p_direct;
    p_stale = false;
  }

(* Whether [plan] compiles placement [c] as it compiled the placement it
   was derived from: every direct jump lands inside the body, at the same
   offset, or outside it in both. *)
let fits plan (c : Image.chunk) ~len =
  let ok = ref true in
  Array.iteri
    (fun j k -> if direct_target c ~len (placed_insn plan c k) <> plan.p_tgt.(j) then ok := false)
    plan.p_direct;
  !ok

(* The code of [plan] at placement [c], chunk [ci] of its image: the
   address-dependent closures — fetch accounting, exec-permission probes
   at block entries and page transitions, terminators, the effects that
   name an address — built around the plan's shared effects. *)
let instantiate (p : Cost.profile) plan (c : Image.chunk) ~ci =
  let b = c.Image.c_body and entry = c.Image.c_entry in
  let ls = line_shift p in
  let addr k = entry + plan.p_offs.(k) in
  let size k = b.Image.b_sizes.(plan.p_ins.(k)) in
  let bid a = match Hashtbl.find_opt plan.p_bid (a - entry) with Some k -> k | None -> -1 in
  let effect k () =
    match plan.p_eff.(k) with
    | Some e -> e
    | None -> compile_effect ~addr:(addr k) (placed_insn plan c k)
  in
  let compile_block (s, e) =
    let bn = e - s + 1 in
    let need_check k = k = 0 || Addr.page_base (addr (s + k)) <> Addr.page_base (addr (s + k - 1)) in
    (* Compile effects until one is unsupported; the block then truncates
       there with a deopt terminator (the interpreter retries that
       instruction; anything after it stays cold until the next leader). *)
    let ops = Array.make (bn - 1) deopt_op in
    let k = ref 0 in
    (try
       while !k < bn - 1 do
         let i = s + !k in
         ops.(!k) <-
           compile_op ~ls ~check:(need_check !k) ~addr:(addr i) ~size:(size i) plan.p_acct.(i)
             (effect i ());
         incr k
       done
     with Unsupported -> ());
    let ops, term, bn =
      if !k < bn - 1 then (Array.sub ops 0 !k, deopt_term, !k + 1)
      else
        ( ops,
          (try
             compile_term p ~ls ~check:(need_check (bn - 1)) ~addr:(addr e) ~size:(size e)
               ~a:plan.p_acct.(e) (placed_insn plan c e) ~eff:(effect e) ~bid
           with Unsupported -> deopt_term),
          bn )
    in
    { b_addrs = Array.init bn (fun k -> addr (s + k)); b_ops = ops; b_term = term; b_n = bn }
  in
  {
    f_ci = ci;
    f_plan = plan;
    f_blocks = Array.map compile_block plan.p_blocks;
    f_obs = Atomic.make None;
    f_leaders = Array.map (fun (o, k) -> (entry + o, k)) plan.p_leaders;
  }

(* ------------------------------------------------------------------ *)
(* Observed templates: the plain ones, wrapped.                         *)
(* ------------------------------------------------------------------ *)

(* Fire the site of [addr], the instruction just retired, body
   instruction [k] of chunk [ci], with the deltas [Cpu.step] computes: the
   live [cyc] slot and the icache miss count, each differenced around the
   instruction (so the float delta is bit-identical). A resolved site is
   read from the CPU's table in place: [Cpu.Internal.site], a cross-module
   call per instruction, only resolves a new one. *)
let fire c ~ci ~k addr ~called =
  let t = c.t in
  let sites = t.Cpu.sites in
  let s =
    if ci < Array.length sites then
      let arr = Array.unsafe_get sites ci in
      if k < Array.length arr then Array.unsafe_get arr k else Cpu.Internal.unresolved
    else Cpu.Internal.unresolved
  in
  let s = if s != Cpu.Internal.unresolved then s else Cpu.Internal.site t addr in
  s
    ~cycles:(Array.unsafe_get c.cyc 0 -. Array.unsafe_get c.cyc 1)
    ~misses:(c.ic.Icache.miss_count - c.o_miss)
    ~called

(* [observe ~calls ~ci ~k ~addr code] runs the plain template [code]
   with [addr] in flight, then fires its site. No handler: when the
   template faults, it has already materialized rip, and [exec_cfunc]'s
   exit handler fires the site of the instruction still in flight. Only a
   terminator can call ([~calls]); an op's wrapper skips the call-count
   snapshot. *)
let observe ~calls ~ci ~k ~addr (code : ctx -> 'a) : ctx -> 'a =
  if calls then fun c ->
    let t = c.t in
    let calls0 = t.Cpu.calls in
    Array.unsafe_set c.cyc 1 (Array.unsafe_get c.cyc 0);
    c.o_miss <- c.ic.Icache.miss_count;
    c.o_addr <- addr;
    let r = code c in
    c.o_addr <- -1;
    fire c ~ci ~k addr ~called:(t.Cpu.calls > calls0);
    r
  else fun c ->
    Array.unsafe_set c.cyc 1 (Array.unsafe_get c.cyc 0);
    c.o_miss <- c.ic.Icache.miss_count;
    c.o_addr <- addr;
    let r = code c in
    c.o_addr <- -1;
    fire c ~ci ~k addr ~called:false;
    r

(* Block [bi]'s instruction [k] is scanned instruction [s + k] of the
   plan, where [s] starts the block, and its site is body instruction
   [p_ins.(s + k)]. A deopt terminator is never wrapped: it retires
   nothing, and the interpreter fires when it retries the instruction. *)
let observe_block f bi b =
  let s, _ = f.f_plan.p_blocks.(bi) in
  let obs ~calls k =
    observe ~calls ~ci:f.f_ci ~k:f.f_plan.p_ins.(s + k) ~addr:b.b_addrs.(k)
  in
  {
    b with
    b_ops = Array.mapi (fun k op -> obs ~calls:false k op) b.b_ops;
    b_term = (if b.b_term == deopt_term then deopt_term else obs ~calls:true (b.b_n - 1) b.b_term);
  }

let obs_blocks f =
  match Atomic.get f.f_obs with
  | Some blocks -> blocks
  | None ->
      let blocks = Array.mapi (observe_block f) f.f_blocks in
      Atomic.set f.f_obs (Some blocks);
      blocks

(* ------------------------------------------------------------------ *)
(* Code caches: one image's slot table and compiled functions.         *)
(* ------------------------------------------------------------------ *)

(* A slot at or above 0 is an installed leader: block [s lsr fbits] of
   function [s land fmask]. *)
let fbits = 24
let fmask = (1 lsl fbits) - 1

(* The slot table: address -> slot, by open addressing over interleaved
   (address, slot) pairs; a free pair holds (-1, -1). It holds only
   function entries and installed leaders, so it stays small enough to sit
   in the host's cache, which a per-byte array over the text does not. A
   pair's address is set once, its slot is only ever rewritten with
   another slot valid for that address, and a table is only replaced by a
   fully built larger one, so a reader in another domain sees a valid
   slot or a miss. *)
type slots = { mask : int; kv : int array; mutable used : int }

(* Room for [n] pairs at a load of at most a quarter. *)
let slots_create n =
  let cap = ref 64 in
  while !cap < 4 * n do
    cap := 2 * !cap
  done;
  { mask = !cap - 1; kv = Array.make (2 * !cap) (-1); used = 0 }

let[@inline] hash a mask = ((a * 0x9E3779B97F4A7C1) lsr 20) land mask

(* A reader stops at a free key before looking at its slot: a writer
   fills the slot first, so a pair being taken reads as free. *)
let rec probe kv mask a i =
  let k = Array.unsafe_get kv (2 * i) in
  if k = a then Array.unsafe_get kv ((2 * i) + 1)
  else if k = -1 then -1
  else probe kv mask a ((i + 1) land mask)

let[@inline] lookup (tb : slots) a = probe tb.kv tb.mask a (hash a tb.mask)

(* The pair index holding [a], or the free one it would take. *)
let rec place kv mask a i =
  let k = Array.unsafe_get kv (2 * i) in
  if k = a || k = -1 then i else place kv mask a ((i + 1) land mask)

let put_fresh tb a v =
  let i = place tb.kv tb.mask a (hash a tb.mask) in
  if tb.kv.(2 * i) = -1 then tb.used <- tb.used + 1;
  tb.kv.((2 * i) + 1) <- v;
  tb.kv.(2 * i) <- a

type fstate = Cold | Declined | Compiled of cfunc

type code = {
  img : Image.t;
  base : int;  (* text base: the origin of [marks] *)
  slots : slots Atomic.t;
      (* -(i+2) at the entry of function i while it has no installed code,
         else installed leaders; every other address is a miss (-1) *)
  marks : Bytes.t;
      (* one bit per text byte, set for every address ever in [slots]: the
         cold loop stops only at transfers onto a marked address (or short
         backward ones), so a transfer to anything else costs one bit
         test. A bit is never cleared; a stale one costs a probe. *)
  funcs : Image.func_info array;  (* sorted by entry *)
  cis : int array;  (* function [i]'s chunk in [img.chunks], or -1 *)
  bounds : int array;  (* entry and end of function [i] at [2i], [2i+1] *)
  longest : int;  (* the longest [code_len] *)
  states : fstate Atomic.t array;
      (* per function; [install] sets it before writing the leaders, so a
         reader that finds a leader and then [Compiled f] runs a fully
         built [f], and one that finds anything else just stays cold *)
}

let mark code a =
  let o = a - code.base in
  if o >= 0 && o lsr 3 < Bytes.length code.marks then
    Bytes.set code.marks (o lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.get code.marks (o lsr 3)) lor (1 lsl (o land 7))))

(* Writers hold the cache lock. A full table is replaced by one twice the
   size, published whole. *)
let set_slot code a v =
  mark code a;
  let tb = Atomic.get code.slots in
  let i = place tb.kv tb.mask a (hash a tb.mask) in
  if tb.kv.(2 * i) = a then tb.kv.((2 * i) + 1) <- v
  else if 2 * (tb.used + 1) <= tb.mask + 1 then put_fresh tb a v
  else begin
    let big = slots_create ((tb.mask + 1) / 2) in
    for j = 0 to tb.mask do
      let k = tb.kv.(2 * j) in
      if k <> -1 then put_fresh big k tb.kv.((2 * j) + 1)
    done;
    put_fresh big a v;
    Atomic.set code.slots big
  end

let build_code (img : Image.t) =
  let funcs = img.Image.funcs in
  let nf = Array.length funcs in
  if nf > fmask then invalid_arg "Jit: too many functions";
  let code =
    {
      img;
      base = img.Image.text_base;
      slots = Atomic.make (slots_create nf);
      marks = Bytes.make ((img.Image.text_len + 7) / 8) '\000';
      funcs;
      cis =
        (let cs = img.Image.chunks in
         let k = ref 0 in
         Array.map
           (fun (fi : Image.func_info) ->
             while !k < Array.length cs && cs.(!k).Image.c_entry < fi.Image.entry do
               incr k
             done;
             if !k < Array.length cs && cs.(!k).Image.c_entry = fi.Image.entry then !k else -1)
           funcs);
      bounds =
        Array.init (2 * nf) (fun k ->
            let fi = funcs.(k / 2) in
            if k land 1 = 0 then fi.Image.entry else fi.Image.entry + fi.Image.code_len);
      longest = Array.fold_left (fun m (fi : Image.func_info) -> max m fi.Image.code_len) 0 funcs;
      states = Array.init nf (fun _ -> Atomic.make Cold);
    }
  in
  Array.iteri (fun i (fi : Image.func_info) -> set_slot code fi.Image.entry (-(i + 2))) funcs;
  code

(* What a never-compiling runner sees: no slots and no functions, so the
   cold loop's probes find nothing and no counter exists. *)
let no_code (img : Image.t) =
  {
    img;
    base = img.Image.text_base;
    slots = Atomic.make (slots_create 0);
    marks = Bytes.empty;
    funcs = [||];
    cis = [||];
    bounds = [||];
    longest = 0;
    states = [||];
  }

(* Plans by body, for a private cache: physical identity, hashed on the
   body's bytes. *)
module Bodies = Hashtbl.Make (struct
  type t = Image.body

  let equal = ( == )
  let hash (b : Image.body) = Hashtbl.hash b.Image.b_text
end)

type Image.body_code += Plan of Cost.profile * plan

(* A code cache: the dense state of the image it currently serves, and the
   plans it compiles from. An image's own cache keeps its plans on the
   bodies ([Image.body.b_code], one per cost profile), so every image
   that places a body — every rotation of a program — instantiates the
   plan the first one derived; a cache made by [create_cache] keeps them
   in a private table. The lock serializes compilation and installation;
   readers go through [code.states]. *)
type cache = {
  lock : Mutex.t;
  profile : Cost.profile;
  own : plan Bodies.t option;  (* a private cache's plans *)
  code : code;
}

type Image.jit_cache += Cache of cache

let find_plan cache (b : Image.body) =
  match cache.own with
  | Some h -> Bodies.find_opt h b
  | None ->
      let rec find = function
        | Plan (p, plan) :: _ when p == cache.profile -> Some plan
        | _ :: rest -> find rest
        | [] -> None
      in
      find (Atomic.get b.Image.b_code)

(* Bodies are shared by images whose caches hold different locks: the
   compare-and-set keeps every other profile's plan. *)
let set_plan cache (b : Image.body) plan =
  match cache.own with
  | Some h -> Bodies.replace h b plan
  | None ->
      let rec set () =
        let cur = Atomic.get b.Image.b_code in
        let rest = List.filter (function Plan (p, _) -> p != cache.profile | _ -> true) cur in
        if not (Atomic.compare_and_set b.Image.b_code cur (Plan (cache.profile, plan) :: rest)) then set ()
      in
      set ()

let create_cache ~profile (img : Image.t) =
  { lock = Mutex.create (); profile; own = Some (Bodies.create 64); code = build_code img }

(* The image's own cache for [profile], published once: racing domains
   may both build one, and the compare-and-set keeps exactly one. *)
let image_cache (img : Image.t) profile =
  let rec find = function
    | Cache c :: _ when c.profile == profile -> Some c
    | _ :: rest -> find rest
    | [] -> None
  in
  let rec get () =
    let cur = Atomic.get img.Image.jit in
    match find cur with
    | Some c -> c
    | None ->
        let c = { lock = Mutex.create (); profile; own = None; code = build_code img } in
        if Atomic.compare_and_set img.Image.jit cur (Cache c :: cur) then c else get ()
  in
  get ()

(* A JIT attachment: one CPU, its thresholds, and its own hotness counters
   and statistics. [fcalls.(i)] counts calls of function [i] until this
   attachment compiles, adopts or declines it, and is [-1] from then on. *)
type t = {
  cpu : Cpu.t;
  ctx : ctx;
  cfg : config;
  stats : stats;
  explicit : cache option;  (* the cache [attach] adopted, if any *)
  mutable fcalls : int array;
  mutable fbacks : int array;
  from : int ref;  (* the cold loop's last transferring instruction *)
}

let cache_of j =
  match j.explicit with
  | Some c -> c
  | None -> image_cache j.cpu.Cpu.image j.cpu.Cpu.profile

(* The dense state this attachment's runs use. *)
let code_of j = if never_compiles j.cfg then no_code j.cpu.Cpu.image else (cache_of j).code

let install code fidx f =
  Atomic.set code.states.(fidx) (Compiled f);
  Array.iter (fun (a, bi) -> set_slot code a ((bi lsl fbits) lor fidx)) f.f_leaders

let uninstall code fidx f =
  Atomic.set code.states.(fidx) Cold;
  Array.iter (fun (a, bi) -> set_slot code a (if bi = 0 then -(fidx + 2) else -1)) f.f_leaders

(* Last function whose entry is <= addr and whose body covers it: a
   binary search over the flat [bounds], not the scattered records. *)
let func_covering code addr =
  let b = code.bounds in
  let lo = ref 0 and hi = ref ((Array.length b / 2) - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get b (2 * mid) <= addr then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  let i = !res in
  if i >= 0 && addr < b.((2 * i) + 1) then i else -1

(* Whether function [fidx]'s body has a live plan: an earlier placement
   found it hot, so this one adopts it on first entry rather than after
   the thresholds — a rotated image's first run enters compiled code where
   a rerun of it would. *)
let planned j code fidx =
  let ci = code.cis.(fidx) in
  ci >= 0
  &&
  match find_plan (cache_of j) code.img.Image.chunks.(ci).Image.c_body with
  | Some plan -> not plan.p_stale
  | None -> false

(* Function [fidx] reached a threshold. This attachment stops counting it
   and takes whatever the cache has: code another process of the image
   installed, or its body's plan — derived by an earlier placement — at
   this placement (both adoptions), or a fresh plan, replacing a stale one
   ([poison]), which is never instantiated again. A plan that does not fit
   this placement (see [fits]) is compiled afresh for it alone. *)
let try_compile j code fidx =
  let st = j.stats in
  j.fcalls.(fidx) <- -1;
  let adopt () = st.revalidated <- st.revalidated + 1 in
  match Atomic.get code.states.(fidx) with
  | Compiled _ -> adopt ()
  | Declined -> ()
  | Cold ->
      let cache = cache_of j in
      Mutex.protect cache.lock (fun () ->
          match Atomic.get code.states.(fidx) with
          | Compiled _ -> adopt ()
          | Declined -> ()
          | Cold -> (
              let fi = code.funcs.(fidx) in
              let decline () = Atomic.set code.states.(fidx) Declined in
              match code.cis.(fidx) with
              | -1 -> decline ()
              | ci -> (
                  let c = code.img.Image.chunks.(ci) in
                  let len = fi.Image.code_len in
                  let place plan = install code fidx (instantiate cache.profile plan c ~ci) in
                  let fresh ~keep =
                    match plan_func cache.profile c ~len with
                    | plan ->
                        if keep then set_plan cache c.Image.c_body plan;
                        place plan;
                        st.compiled <- st.compiled + 1
                    | exception Unsupported -> decline ()
                  in
                  match find_plan cache c.Image.c_body with
                  | Some plan when plan.p_stale ->
                      st.invalidated <- st.invalidated + 1;
                      fresh ~keep:true
                  | Some plan when fits plan c ~len ->
                      place plan;
                      adopt ()
                  | Some _ -> fresh ~keep:false
                  | None -> fresh ~keep:true)))

(* ------------------------------------------------------------------ *)
(* The runner.                                                         *)
(* ------------------------------------------------------------------ *)

(* The compiled blocks to enter for the leader slot [s], or [[||]] when
   its function's code is not visibly installed. Every function installed
   at one index of one [code] was instantiated at the same placement from
   a plan of the same body, so it has the same blocks: a leader read just
   before a reinstall still names the right one. Counts the entry, and the adoption when this
   attachment has not run the function's code before. *)
let leader j code ~observed s =
  let fidx = s land fmask in
  match Atomic.get (Array.unsafe_get code.states fidx) with
  | Compiled f ->
      let blocks = if observed then obs_blocks f else f.f_blocks in
      let bi = s lsr fbits in
      if bi < Array.length blocks then begin
        let st = j.stats in
        if Array.unsafe_get j.fcalls fidx >= 0 then begin
          j.fcalls.(fidx) <- -1;
          st.revalidated <- st.revalidated + 1
        end;
        if bi = 0 then st.entry_enters <- st.entry_enters + 1
        else st.osr_enters <- st.osr_enters + 1;
        blocks
      end
      else [||]
  | Cold | Declined -> [||]

(* Execute compiled blocks starting at block [bi0] of [blocks0] with at
   most [budget0] instructions. Returns instructions retired, or
   [-(retired + 1)] when the exit is a deopt (rip points at an
   instruction the caller must interpret). The cycle counter lives in
   [ctx.cyc] for the duration and is flushed back on every exit,
   exceptional ones included; rip is materialized at every exit point. An
   exceptional exit of an observed run fires the site of the instruction
   in flight, once, as [Cpu.step] does for a faulting step. *)
let exec_cfunc (j : t) ~observed code blocks0 bi0 budget0 =
  let c = j.ctx in
  let t = j.cpu in
  c.cyc.(0) <- t.Cpu.cycles;
  let consumed = ref 0 in
  let deopt = ref false in
  let rec loop blocks bi budget =
    let b = Array.unsafe_get blocks bi in
    let n = b.b_n in
    if budget < n then begin
      (* fuel exhaustion mid-block: retire what the budget allows and
         materialize rip at the first unexecuted instruction *)
      for k = 0 to budget - 1 do
        (Array.unsafe_get b.b_ops k) c
      done;
      consumed := !consumed + budget;
      t.Cpu.rip <- Array.unsafe_get b.b_addrs budget
    end
    else begin
      let nops = n - 1 in
      for k = 0 to nops - 1 do
        (Array.unsafe_get b.b_ops k) c
      done;
      let k = b.b_term c in
      if k >= 0 then begin
        consumed := !consumed + n;
        if budget - n > 0 then loop blocks k (budget - n)
        else t.Cpu.rip <- Array.unsafe_get (Array.unsafe_get blocks k).b_addrs 0
      end
      else if k = -1 then begin
        consumed := !consumed + n;
        (* cross-function continuation: a call, return or tail jump whose
           target is itself a compiled leader stays in the runner rather
           than bouncing through the outer loop (the dominant cost on
           call-heavy workloads) *)
        let budget = budget - n in
        if budget > 0 && not t.Cpu.halted then begin
          let rip = t.Cpu.rip in
          let s = lookup (Atomic.get code.slots) rip in
          if s >= 0 then begin
            let blocks' = leader j code ~observed s in
            if Array.length blocks' > 0 then loop blocks' (s lsr fbits) budget
          end
        end
      end
      else begin
        consumed := !consumed + nops;
        t.Cpu.rip <- Array.unsafe_get b.b_addrs nops;
        deopt := true
      end
    end
  in
  (try loop blocks0 bi0 budget0
   with e ->
     t.Cpu.cycles <- c.cyc.(0);
     let a = c.o_addr in
     if a >= 0 then begin
       c.o_addr <- -1;
       (Cpu.Internal.site t a)
         ~cycles:(c.cyc.(0) -. c.cyc.(1))
         ~misses:(c.ic.Icache.miss_count - c.o_miss)
         ~called:false
     end;
     raise e);
  t.Cpu.cycles <- c.cyc.(0);
  if !deopt then -(!consumed + 1) else !consumed

(* A backward transfer from [from] to [rip] within one function is a loop
   backedge of it. One spanning more than the longest body cannot be —
   most returns — so only the rest pay for the function lookup. *)
let backedge j code ~from rip =
  let fidx = if from - rip < code.longest then func_covering code rip else -1 in
  if fidx >= 0 then begin
    if from < code.bounds.((2 * fidx) + 1) && j.fcalls.(fidx) >= 0 then begin
      let n = j.fbacks.(fidx) + 1 in
      j.fbacks.(fidx) <- n;
      if n >= j.cfg.backedge_threshold || (n = 1 && planned j code fidx) then try_compile j code fidx
    end
  end

(* The cold loop: straight-line code through the interpreter core (its
   observed twin when observed) up to a transfer onto a marked address or
   a short backward one, then a backedge count when it jumped back inside
   one function, and a probe. A never-compiling runner marks nothing, so
   its straight line runs through every transfer to the end of the run:
   no probe, no counter. *)
let rec cold j ~observed code d budget =
  let t = j.cpu in
  j.from := -1;
  let budget =
    Cpu.Internal.straight t d ~marks:code.marks ~longest:code.longest ~from:j.from budget
  in
  let from = !(j.from) in
  if from >= 0 then begin
    let rip' = t.Cpu.rip in
    if rip' < from && not t.Cpu.halted then backedge j code ~from rip';
    enter j ~observed code d budget
  end
  else if t.Cpu.halted then Cpu.Halted
  else if budget <= 0 then Cpu.Fuel_exhausted
  else cold j ~observed code d budget

(* Control arrived at rip by a transfer: enter compiled code at an
   installed leader, count a call at an uncompiled function entry, and
   otherwise carry on cold. *)
and enter j ~observed code d budget =
  let t = j.cpu in
  if t.Cpu.halted then Cpu.Halted
  else if budget <= 0 then Cpu.Fuel_exhausted
  else begin
    let rip = t.Cpu.rip in
    let s = lookup (Atomic.get code.slots) rip in
    if s >= 0 then begin
      let blocks = leader j code ~observed s in
      if Array.length blocks = 0 then cold j ~observed code d budget
      else begin
        let st = j.stats in
        let r = exec_cfunc j ~observed code blocks (s lsr fbits) budget in
        if r >= 0 then begin
          st.tier3_insns <- st.tier3_insns + r;
          enter j ~observed code d (budget - r)
        end
        else begin
          let consumed = -r - 1 in
          st.tier3_insns <- st.tier3_insns + consumed;
          st.deopts <- st.deopts + 1;
          (* the deopt instruction itself runs in the interpreter; the
             budget always has room for it (a deopt exit retires at most
             budget - 1 instructions) *)
          ignore
            (Cpu.Internal.straight t d ~marks:code.marks ~longest:code.longest ~from:j.from 1);
          enter j ~observed code d (budget - consumed - 1)
        end
      end
    end
    else if s < -1 && Array.unsafe_get j.fcalls (-s - 2) >= 0 then begin
      let fidx = -s - 2 in
      let n = j.fcalls.(fidx) + 1 in
      j.fcalls.(fidx) <- n;
      if n >= j.cfg.call_threshold || (n = 1 && planned j code fidx) then begin
        (* installed now, or no longer counted: the re-probe settles it *)
        try_compile j code fidx;
        enter j ~observed code d budget
      end
      else cold j ~observed code d budget
    end
    else cold j ~observed code d budget
  end

(* Cold instructions are counted as whatever tier 3 did not retire, so
   the cold loop itself counts nothing. *)
let run j ~fuel =
  let code = code_of j in
  let nf = Array.length code.funcs in
  if Array.length j.fcalls <> nf then begin
    j.fcalls <- Array.make nf 0;
    j.fbacks <- Array.make nf 0
  end;
  let t = j.cpu and st = j.stats in
  let d = Image.predecoded t.Cpu.image in
  let observed = Option.is_some t.Cpu.observer in
  let insns0 = t.Cpu.insns and tier30 = st.tier3_insns in
  let r = try enter j ~observed code d fuel with Fault.Fault f -> Cpu.Faulted f in
  st.interp_insns <- st.interp_insns + (t.Cpu.insns - insns0) - (st.tier3_insns - tier30);
  r

(* ------------------------------------------------------------------ *)
(* Attachment.                                                         *)
(* ------------------------------------------------------------------ *)

let attach ?(config = default_config) ?cache ?stats (cpu : Cpu.t) =
  (match cache with
  | Some c when c.code.img != cpu.Cpu.image || c.profile != cpu.Cpu.profile ->
      invalid_arg "Jit.attach: a private cache serves only the image and profile it was made for"
  | _ -> ());
  let ctx =
    {
      t = cpu;
      regs = cpu.Cpu.regs;
      ymm = cpu.Cpu.ymm;
      mem = cpu.Cpu.mem;
      ic = cpu.Cpu.icache;
      cyc = [| 0.0; 0.0 |];
      o_addr = -1;
      o_miss = 0;
    }
  in
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let j =
    { cpu; ctx; cfg = config; stats; explicit = cache; fcalls = [||]; fbacks = [||]; from = ref (-1) }
  in
  Cpu.set_tier3 cpu (Some (fun _ ~fuel -> run j ~fuel));
  j

(* Test hook: corrupt the cached entry for [entry] as a crashed
   rerandomization might leave it. Its body's plan goes stale, so no
   placement instantiates it again; the code this attachment's image
   installed from it is uninstalled and raises if it ever runs. The next
   time the function is hot it must be invalidated and recompiled. *)
let poison j ~entry =
  let cache = cache_of j in
  Mutex.protect cache.lock (fun () ->
      let code = cache.code in
      let fidx = func_covering code entry in
      let ci = if fidx >= 0 && code.funcs.(fidx).Image.entry = entry then code.cis.(fidx) else -1 in
      match if ci < 0 then None else find_plan cache code.img.Image.chunks.(ci).Image.c_body with
      | None -> false
      | Some plan ->
          plan.p_stale <- true;
          (match Atomic.get code.states.(fidx) with
          | Compiled f ->
              uninstall code fidx f;
              let stale _ = failwith "Jit: stale code executed" in
              let trip b = { b with b_ops = Array.map (fun _ -> stale) b.b_ops; b_term = stale } in
              f.f_blocks <- Array.map trip f.f_blocks;
              Atomic.set f.f_obs None
          | Cold | Declined -> ());
          if fidx < Array.length j.fcalls then begin
            j.fcalls.(fidx) <- 0;
            j.fbacks.(fidx) <- 0
          end;
          true)
