(* Tier-3 template JIT (ROADMAP item 1).

   Hot functions — detected by cheap per-function call and loop-backedge
   counters — are compiled from their predecoded [Image.pslot] form into
   flat arrays of OCaml closures: one closure per instruction, straight-line
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
   are a second compilation of the same blocks, built per function the
   first time an observed run enters it, so the unobserved templates stay
   exactly as they are.

   The bit-identicality contract is absolute: every cycle is accumulated by
   the same float additions in the same order as [Cpu.execute], base costs
   come from the same [Cost.base_cost], and the cold/deopt path funnels
   through [Cpu.Internal.execute] itself. Cycles are kept in a one-slot
   float array while compiled code runs (a boxed-float record store per
   instruction is the single biggest interpreter cost) and flushed back to
   [Cpu.t] on every exit, including exceptional ones.

   Compiled code is CPU-independent: closures take the machine context as
   an argument and capture only constants, so one code cache serves every
   respawn of a process ([Process.restart] reuses it warm). Caches survive
   re-imaging too: entries are keyed by function entry address and carry a
   digest of the decoded body, so after an incremental rerandomization a
   stale entry is either revalidated (digest unchanged — the function did
   not move or change) or invalidated and recompiled, never executed. *)

exception Unsupported

type config = { call_threshold : int; backedge_threshold : int }

let default_config = { call_threshold = 8; backedge_threshold = 24 }

(* Global default switch, consulted by Loader/Process at attach time.
   R2C_JIT=0 turns tier 3 off fleet-wide without touching call sites. *)
let enabled_ref =
  ref
    (match Sys.getenv_opt "R2C_JIT" with
    | Some ("0" | "false" | "off" | "no") -> false
    | _ -> true)

let enabled () = !enabled_ref

(* The machine context threaded through every compiled closure. All fields
   are aliases into the owning [Cpu.t] except [cyc], the unboxed cycle
   accumulator. *)
type ctx = {
  t : Cpu.t;
  regs : int array;
  ymm : int array;
  mem : Mem.t;
  ic : Icache.t;
  cyc : float array;  (* one slot: the live cycle counter while compiled *)
  mutable om : int;  (* observed templates: icache misses of this step *)
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

type cfunc = {
  f_entry : int;
  mutable f_digest : string;  (* of the decoded body; mutable for [poison] *)
  mutable f_gen : int;  (* cache generation this entry is valid for *)
  f_blocks : block array;
  f_obs : block array Lazy.t;  (* the same blocks as observed templates *)
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

type cache = {
  mutable owner : Image.t;
  mutable profile : Cost.profile;
  mutable cgen : int;
  mutable cfg : config;
  tbl : (int, cfunc) Hashtbl.t;  (* function entry address -> code *)
  (* Dense per-image state, rebuilt lazily whenever [owner] changes: *)
  mutable base : int;
  mutable slot : int array;
      (* per text offset: -1 nothing, -(i+2) entry of uncompiled function
         i, k >= 0 an index into [leaders] *)
  mutable funcs : Image.func_info array;  (* sorted by entry *)
  mutable fcalls : int array;
  mutable fbacks : int array;
  mutable nocompile : bool array;
  mutable leaders : (cfunc * int) array;
  mutable nleaders : int;
  stats : stats;
}

type t = { cpu : Cpu.t; cache : cache; ctx : ctx }

let stats_create () =
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

let create_cache ?(config = default_config) ~profile (img : Image.t) =
  {
    owner = img;
    profile;
    cgen = 0;
    cfg = config;
    tbl = Hashtbl.create 64;
    base = img.Image.text_base;
    slot = [||];
    funcs = [||];
    fcalls = [||];
    fbacks = [||];
    nocompile = [||];
    leaders = [||];
    nleaders = 0;
    stats = stats_create ();
  }

let cache_stats c = c.stats
let stats j = j.cache.stats

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

(* Fetch accounting, precomputed per instruction. The float additions run
   in exactly [Cpu.execute]'s order — base, then fetch, then the miss
   penalty term — on the live [cyc] slot; float addition is
   non-associative, so the order is part of the contract. *)
let mk_core (p : Cost.profile) ~addr ~size ~(cb : float) (eff : ctx -> unit) :
    ctx -> unit =
  let cf = float_of_int size /. p.Cost.fetch_bytes_per_cycle in
  let pen = p.Cost.icache_miss_penalty in
  let ls =
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    log2 0 p.Cost.icache_line_bytes
  in
  let first = addr lsr ls and last = (addr + size - 1) lsr ls in
  if first = last then
    fun c ->
      let m = Icache.access_line c.ic first in
      Array.unsafe_set c.cyc 0
        (Array.unsafe_get c.cyc 0 +. cb +. cf +. (float_of_int m *. pen));
      let t = c.t in
      t.Cpu.insns <- t.Cpu.insns + 1;
      eff c
  else
    fun c ->
      let m = Icache.access c.ic ~addr ~len:size in
      Array.unsafe_set c.cyc 0
        (Array.unsafe_get c.cyc 0 +. cb +. cf +. (float_of_int m *. pen));
      let t = c.t in
      t.Cpu.insns <- t.Cpu.insns + 1;
      eff c

(* Exec-permission probes are kept only at block entries and page
   transitions: text protections can only change at builtin boundaries,
   which always exit compiled code, so within one runner activation the
   elided same-page probes are provably no-ops. *)
let wrap_op ~check ~can_fault ~addr (core : ctx -> unit) : ctx -> unit =
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

(* Observed templates. [fire] hands the attached observer's site for
   [addr] the step's deltas, computed as [Cpu.step] computes them: the
   live [cyc] slot differenced around the step (so the float delta is
   bit-identical), and the fetch's miss count. Faults fire once, with rip
   materialized, before propagating. *)
let fire c addr cycles misses called =
  let s = Cpu.Internal.site c.t addr in
  s ~cycles ~misses ~called

(* [mk_core]'s accounting — the same float additions in the same order —
   returning the step's icache misses instead of running an effect. *)
let obs_fetch (p : Cost.profile) ~addr ~size ~(cb : float) : ctx -> int =
  let cf = float_of_int size /. p.Cost.fetch_bytes_per_cycle in
  let pen = p.Cost.icache_miss_penalty in
  let ls =
    let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
    log2 0 p.Cost.icache_line_bytes
  in
  let first = addr lsr ls in
  let one_line = first = (addr + size - 1) lsr ls in
  fun c ->
    let m =
      if one_line then Icache.access_line c.ic first
      else Icache.access c.ic ~addr ~len:size
    in
    Array.unsafe_set c.cyc 0
      (Array.unsafe_get c.cyc 0 +. cb +. cf +. (float_of_int m *. pen));
    let t = c.t in
    t.Cpu.insns <- t.Cpu.insns + 1;
    m

(* An observed non-control instruction. Only an instruction that can
   fault (or carries the exec-permission probe) pays for a handler. *)
let obs_op ~check ~can_fault ~addr (fetch : ctx -> int) (eff : ctx -> unit) :
    ctx -> unit =
  if check || can_fault then fun c ->
    let cyc0 = Array.unsafe_get c.cyc 0 in
    let m = ref 0 in
    match
      if check then Mem.check_exec c.mem addr;
      m := fetch c;
      eff c
    with
    | () -> fire c addr (Array.unsafe_get c.cyc 0 -. cyc0) !m false
    | exception e ->
        (match e with Fault.Fault _ -> c.t.Cpu.rip <- addr | _ -> ());
        fire c addr (Array.unsafe_get c.cyc 0 -. cyc0) !m false;
        raise e
  else fun c ->
    let cyc0 = Array.unsafe_get c.cyc 0 in
    let m = fetch c in
    eff c;
    fire c addr (Array.unsafe_get c.cyc 0 -. cyc0) m false

(* A control terminator compiled with [obs_fetch] accounting. Deopt
   terminators are never wrapped: they retire nothing, and the
   interpreter fires when it retries the instruction. *)
let obs_term ~addr (term : ctx -> int) : ctx -> int =
 fun c ->
  let t = c.t in
  let cyc0 = Array.unsafe_get c.cyc 0 and calls0 = t.Cpu.calls in
  c.om <- 0;
  match term c with
  | k ->
      fire c addr (Array.unsafe_get c.cyc 0 -. cyc0) c.om (t.Cpu.calls > calls0);
      k
  | exception e ->
      fire c addr (Array.unsafe_get c.cyc 0 -. cyc0) c.om false;
      raise e

let compile_op p ~obs ~check ~addr ~size insn : ctx -> unit =
  let eff, can_fault = compile_effect ~addr insn in
  let cb = Cost.base_cost p insn in
  if obs then obs_op ~check ~can_fault ~addr (obs_fetch p ~addr ~size ~cb) eff
  else wrap_op ~check ~can_fault ~addr (mk_core p ~addr ~size ~cb eff)

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

let wrap_term ~check ~can_fault ~addr (core : ctx -> int) : ctx -> int =
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

let deopt_term : ctx -> int = fun _ -> -2

(* Terminator for a control instruction ending a block. [bid] maps
   in-function leader addresses to block indices; targets outside it set
   rip and exit the runner. *)
let compile_term p ~obs ~check ~addr ~size insn ~(bid : (int, int) Hashtbl.t) :
    ctx -> int =
  let next = addr + size in
  let cb = Cost.base_cost p insn in
  let acct =
    if obs then begin
      let fetch = obs_fetch p ~addr ~size ~cb in
      fun c -> c.om <- fetch c
    end
    else mk_core p ~addr ~size ~cb (fun _ -> ())
  in
  let wrap_term ~check ~can_fault ~addr core =
    let term = wrap_term ~check ~can_fault ~addr core in
    if obs then obs_term ~addr term else term
  in
  let fall = match Hashtbl.find_opt bid next with Some k -> k | None -> -1 in
  match insn with
  | Insn.Jmp (Insn.TAbs tgt) -> (
      match Hashtbl.find_opt bid tgt with
      | Some k ->
          wrap_term ~check ~can_fault:false ~addr (fun c ->
              acct c;
              k)
      | None ->
          wrap_term ~check ~can_fault:false ~addr (fun c ->
              acct c;
              c.t.Cpu.rip <- tgt;
              -1))
  | Insn.Jmp_ind o ->
      let ev, cf = ev_op o in
      wrap_term ~check ~can_fault:cf ~addr (fun c ->
          acct c;
          c.t.Cpu.rip <- ev c;
          -1)
  | Insn.Jcc (cnd, Insn.TAbs tgt) -> (
      let tst = ev_cond cnd in
      let delta = p.Cost.jcc_taken -. p.Cost.jcc_not_taken in
      match Hashtbl.find_opt bid tgt with
      | Some k ->
          wrap_term ~check ~can_fault:false ~addr (fun c ->
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
      | None ->
          wrap_term ~check ~can_fault:false ~addr (fun c ->
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
      wrap_term ~check ~can_fault:true ~addr (fun c ->
          acct c;
          do_call_c c ~addr ~target:tgt ~next;
          -1)
  | Insn.Call_ind o ->
      let ev, _ = ev_op o in
      wrap_term ~check ~can_fault:true ~addr (fun c ->
          acct c;
          let tgt = ev c in
          do_call_c c ~addr ~target:tgt ~next;
          -1)
  | Insn.Ret ->
      wrap_term ~check ~can_fault:true ~addr (fun c ->
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
      wrap_term ~check ~can_fault:false ~addr (fun c ->
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
      let op = compile_op p ~obs ~check ~addr ~size insn in
      if fall >= 0 then fun c ->
        op c;
        fall
      else fun c ->
        op c;
        c.t.Cpu.rip <- next;
        -1

(* ------------------------------------------------------------------ *)
(* Function bodies: scan, digest, carve into blocks, compile.          *)
(* ------------------------------------------------------------------ *)

(* Decoded body of a function: contiguous instructions from its entry, in
   the current predecode table. Stops at padding/builtin slots. Used both
   to compile and to revalidate a stale cache entry, so it must be a pure
   function of the current image. *)
let scan_body (pd : Image.pslot array) ~base (fi : Image.func_info) :
    (int * Insn.t * int) list =
  let lo = fi.Image.entry - base in
  let hi = min (lo + fi.Image.code_len) (Array.length pd) in
  let rec go off acc =
    if off < 0 || off >= hi then List.rev acc
    else
      match pd.(off) with
      | Image.P_insn (insn, size) when size > 0 ->
          go (off + size) ((base + off, insn, size) :: acc)
      | _ -> List.rev acc
  in
  if lo < 0 || lo >= Array.length pd then [] else go lo []

let body_digest (fi : Image.func_info) insns =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int fi.Image.entry);
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int fi.Image.code_len);
  List.iter
    (fun (a, i, s) ->
      Buffer.add_string b (Printf.sprintf "|%d:%d:%s" a s (Insn.to_string i)))
    insns;
  Digest.string (Buffer.contents b)

let is_control = function
  | Insn.Jmp _ | Insn.Jmp_ind _ | Insn.Jcc _ | Insn.Call _ | Insn.Call_ind _
  | Insn.Ret | Insn.Halt ->
      true
  | _ -> false

let compile_func (p : Cost.profile) ~gen (fi : Image.func_info) insns : cfunc =
  let arr = Array.of_list insns in
  let n = Array.length arr in
  let addr_set = Hashtbl.create (2 * n) in
  Array.iter (fun (a, _, _) -> Hashtbl.replace addr_set a ()) arr;
  (* Leaders: the entry, every branch target inside the body, and the
     fall-through successor of every control instruction. Each leader is
     an OSR entry point. *)
  let leader = Hashtbl.create 16 in
  let mark a = if Hashtbl.mem addr_set a then Hashtbl.replace leader a () in
  (let a0, _, _ = arr.(0) in
   Hashtbl.replace leader a0 ());
  Array.iter
    (fun (a, insn, s) ->
      if is_control insn then begin
        mark (a + s);
        match insn with
        | Insn.Jmp (Insn.TAbs t) -> mark t
        | Insn.Jcc (_, Insn.TAbs t) -> mark t
        | _ -> ()
      end)
    arr;
  (* Carve [arr] into maximal straight-line blocks. *)
  let blocks_idx = ref [] in
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let j = ref s in
    let fin = ref false in
    while not !fin do
      let _, insn, _ = arr.(!j) in
      if is_control insn || !j + 1 >= n then fin := true
      else begin
        let na, _, _ = arr.(!j + 1) in
        if Hashtbl.mem leader na then fin := true else incr j
      end
    done;
    blocks_idx := (s, !j) :: !blocks_idx;
    i := !j + 1
  done;
  let blocks_idx = Array.of_list (List.rev !blocks_idx) in
  let bid = Hashtbl.create 16 in
  Array.iteri
    (fun k (s, _) ->
      let a, _, _ = arr.(s) in
      Hashtbl.replace bid a k)
    blocks_idx;
  let compile_block ~obs (s, e) =
    let bn = e - s + 1 in
    let need_check k =
      k = 0
      ||
      let pa, _, _ = arr.(s + k - 1) in
      let a, _, _ = arr.(s + k) in
      Addr.page_base a <> Addr.page_base pa
    in
    (* Compile effects until one is unsupported; the block then truncates
       there with a deopt terminator (the interpreter retries that
       instruction; anything after it stays cold until the next leader). *)
    let ops = ref [] in
    let cut = ref (-1) in
    (try
       for k = 0 to bn - 2 do
         let a, insn, sz = arr.(s + k) in
         ops := compile_op p ~obs ~check:(need_check k) ~addr:a ~size:sz insn :: !ops
       done
     with Unsupported -> cut := List.length !ops);
    let term, bn =
      if !cut >= 0 then (deopt_term, !cut + 1)
      else
        let la, linsn, lsz = arr.(e) in
        ( (try compile_term p ~obs ~check:(need_check (bn - 1)) ~addr:la ~size:lsz
                 linsn ~bid
           with Unsupported -> deopt_term),
          bn )
    in
    {
      b_addrs =
        Array.init bn (fun k ->
            let a, _, _ = arr.(s + k) in
            a);
      b_ops = Array.of_list (List.rev !ops);
      b_term = term;
      b_n = bn;
    }
  in
  let f_leaders =
    Array.mapi
      (fun k (s, _) ->
        let a, _, _ = arr.(s) in
        (a, k))
      blocks_idx
  in
  {
    f_entry = fi.Image.entry;
    f_digest = body_digest fi insns;
    f_gen = gen;
    f_blocks = Array.map (compile_block ~obs:false) blocks_idx;
    f_obs = lazy (Array.map (compile_block ~obs:true) blocks_idx);
    f_leaders;
  }

(* ------------------------------------------------------------------ *)
(* Cache state: dense slot table, leader registry, (un)installation.   *)
(* ------------------------------------------------------------------ *)

let build_state cache (img : Image.t) =
  let funcs = img.Image.funcs in
  let nf = Array.length funcs in
  cache.base <- img.Image.text_base;
  cache.funcs <- funcs;
  let tlen = max 1 img.Image.text_len in
  let slot = Array.make tlen (-1) in
  Array.iteri
    (fun i (fi : Image.func_info) ->
      let off = fi.Image.entry - img.Image.text_base in
      if off >= 0 && off < tlen then slot.(off) <- -(i + 2))
    funcs;
  cache.slot <- slot;
  cache.fcalls <- Array.make (max 1 nf) 0;
  cache.fbacks <- Array.make (max 1 nf) 0;
  cache.nocompile <- Array.make (max 1 nf) false;
  cache.leaders <- [||];
  cache.nleaders <- 0

let push_leader cache f bi =
  let n = cache.nleaders in
  if n = Array.length cache.leaders then begin
    let a = Array.make (max 64 (2 * n)) (f, bi) in
    Array.blit cache.leaders 0 a 0 n;
    cache.leaders <- a
  end;
  cache.leaders.(n) <- (f, bi);
  cache.nleaders <- n + 1;
  n

(* The slot value a text offset reverts to when compiled code is removed:
   a function-entry marker if the current image has an entry there. *)
let entry_marker cache addr =
  let fs = cache.funcs in
  let lo = ref 0 and hi = ref (Array.length fs - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let e = fs.(mid).Image.entry in
    if e = addr then begin
      res := mid;
      lo := !hi + 1
    end
    else if e < addr then lo := mid + 1
    else hi := mid - 1
  done;
  if !res >= 0 then -(!res + 2) else -1

let install cache f =
  Array.iter
    (fun (a, bix) ->
      let off = a - cache.base in
      if off >= 0 && off < Array.length cache.slot then
        cache.slot.(off) <- push_leader cache f bix)
    f.f_leaders

let uninstall cache f =
  Array.iter
    (fun (a, _) ->
      let off = a - cache.base in
      if off >= 0 && off < Array.length cache.slot then begin
        let s = cache.slot.(off) in
        if s >= 0 then begin
          let g, _ = cache.leaders.(s) in
          if g == f then cache.slot.(off) <- entry_marker cache a
        end
      end)
    f.f_leaders

(* Last function whose entry is <= addr and whose body covers it. *)
let func_covering cache addr =
  let fs = cache.funcs in
  let lo = ref 0 and hi = ref (Array.length fs - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if fs.(mid).Image.entry <= addr then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  let i = !res in
  if i >= 0 && addr < fs.(i).Image.entry + fs.(i).Image.code_len then i else -1

(* Compile (or adopt) function [fidx] of the current image. A cached entry
   from an earlier generation is revalidated against the digest of the
   current decoded body: unchanged bodies are re-installed as-is (the
   common case for functions an incremental rerandomization did not move);
   anything else is dropped and recompiled — a stale entry never runs. *)
let try_compile j fidx =
  let cache = j.cache in
  let fi = cache.funcs.(fidx) in
  let pd = Image.predecoded j.cpu.Cpu.image in
  let insns = scan_body pd ~base:cache.base fi in
  if insns = [] then cache.nocompile.(fidx) <- true
  else begin
    let st = cache.stats in
    let fresh () =
      match compile_func cache.profile ~gen:cache.cgen fi insns with
      | f ->
          Hashtbl.replace cache.tbl fi.Image.entry f;
          install cache f;
          st.compiled <- st.compiled + 1
      | exception Unsupported -> cache.nocompile.(fidx) <- true
    in
    match Hashtbl.find_opt cache.tbl fi.Image.entry with
    | Some f when f.f_gen = cache.cgen -> ()
    | Some f when f.f_digest = body_digest fi insns ->
        f.f_gen <- cache.cgen;
        install cache f;
        st.revalidated <- st.revalidated + 1
    | Some _ ->
        Hashtbl.remove cache.tbl fi.Image.entry;
        st.invalidated <- st.invalidated + 1;
        fresh ()
    | None -> fresh ()
  end

(* ------------------------------------------------------------------ *)
(* The runner.                                                         *)
(* ------------------------------------------------------------------ *)

(* Execute compiled blocks of [f] starting at block [bi0] with at most
   [budget0] instructions. Returns instructions retired, or
   [-(retired + 1)] when the exit is a deopt (rip points at an
   instruction the caller must interpret). The cycle counter lives in
   [ctx.cyc] for the duration and is flushed back on every exit,
   exceptional ones included; rip is materialized at every exit point. *)
let exec_cfunc (j : t) ~observed (f : cfunc) bi0 budget0 =
  let c = j.ctx in
  let t = j.cpu in
  let cache = j.cache in
  let slot = cache.slot in
  let nslots = Array.length slot in
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
          let off = t.Cpu.rip - cache.base in
          if off >= 0 && off < nslots then begin
            let s = Array.unsafe_get slot off in
            if s >= 0 then begin
              let f', bi' = Array.unsafe_get cache.leaders s in
              let st = cache.stats in
              if bi' = 0 then st.entry_enters <- st.entry_enters + 1
              else st.osr_enters <- st.osr_enters + 1;
              loop (if observed then Lazy.force f'.f_obs else f'.f_blocks) bi' budget
            end
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
  (try loop (if observed then Lazy.force f.f_obs else f.f_blocks) bi0 budget0
   with e ->
     t.Cpu.cycles <- c.cyc.(0);
     raise e);
  t.Cpu.cycles <- c.cyc.(0);
  if !deopt then -(!consumed + 1) else !consumed

(* One cold instruction through the shared interpreter core (the OSR exit
   path, everything not yet hot, and out-of-text rips, which fault exactly
   as the interpreter tiers report them). *)
let interp_core j pd rip off =
  let t = j.cpu in
  Mem.check_exec t.Cpu.mem rip;
  (if off >= 0 && off < Array.length pd then
     match Array.unsafe_get pd off with
     | Image.P_insn (insn, size) -> Cpu.Internal.execute t rip insn size
     | Image.P_builtin name -> Cpu.Internal.step_builtin t name
     | Image.P_none -> Fault.raise_fault (Invalid_opcode { addr = rip })
   else Fault.raise_fault (Invalid_opcode { addr = rip }));
  j.cache.stats.interp_insns <- j.cache.stats.interp_insns + 1

(* Under an observer, wrapped exactly as [Cpu.step] wraps its core. *)
let interp_step j ~observed pd rip off =
  if not observed then interp_core j pd rip off
  else begin
    let t = j.cpu in
    let cycles0 = t.Cpu.cycles
    and misses0 = Icache.misses t.Cpu.icache
    and calls0 = t.Cpu.calls in
    match interp_core j pd rip off with
    | () -> Cpu.Internal.fire t rip ~cycles0 ~misses0 ~called:(t.Cpu.calls > calls0)
    | exception e ->
        Cpu.Internal.fire t rip ~cycles0 ~misses0 ~called:false;
        raise e
  end

let rec go j ~observed pd budget =
  let t = j.cpu in
  if t.Cpu.halted then Cpu.Halted
  else if budget <= 0 then Cpu.Fuel_exhausted
  else begin
    let rip = t.Cpu.rip in
    let cache = j.cache in
    let off = rip - cache.base in
    if off >= 0 && off < Array.length cache.slot then begin
      let s = Array.unsafe_get cache.slot off in
      if s >= 0 then begin
        (* compiled leader: enter tier 3 (block 0 = function entry,
           anything else is an OSR entry at a block leader) *)
        let f, bi = Array.unsafe_get cache.leaders s in
        let st = cache.stats in
        if bi = 0 then st.entry_enters <- st.entry_enters + 1
        else st.osr_enters <- st.osr_enters + 1;
        let r = exec_cfunc j ~observed f bi budget in
        if r >= 0 then begin
          st.tier3_insns <- st.tier3_insns + r;
          go j ~observed pd (budget - r)
        end
        else begin
          let consumed = -r - 1 in
          st.tier3_insns <- st.tier3_insns + consumed;
          st.deopts <- st.deopts + 1;
          (* the deopt instruction itself runs in the interpreter; the
             budget always has room for it (a deopt exit retires at most
             budget - 1 instructions) *)
          interp_step j ~observed pd t.Cpu.rip (t.Cpu.rip - cache.base);
          go j ~observed pd (budget - consumed - 1)
        end
      end
      else begin
        if s <= -2 then begin
          (* uncompiled function entry: bump its call counter *)
          let fidx = -s - 2 in
          if not (Array.unsafe_get cache.nocompile fidx) then begin
            let ctr = Array.unsafe_get cache.fcalls fidx + 1 in
            Array.unsafe_set cache.fcalls fidx ctr;
            if ctr >= cache.cfg.call_threshold then try_compile j fidx
          end
        end;
        let s2 = Array.unsafe_get cache.slot off in
        if s2 >= 0 then go j ~observed pd budget (* just compiled: re-probe *)
        else begin
          interp_step j ~observed pd rip off;
          (* a backward transfer within one function is a loop backedge *)
          let rip' = t.Cpu.rip in
          if rip' < rip && rip' >= cache.base && not t.Cpu.halted then begin
            let fidx = func_covering cache rip' in
            if
              fidx >= 0
              && rip
                 < cache.funcs.(fidx).Image.entry
                   + cache.funcs.(fidx).Image.code_len
              && not (Array.unsafe_get cache.nocompile fidx)
            then begin
              let ctr = cache.fbacks.(fidx) + 1 in
              cache.fbacks.(fidx) <- ctr;
              if ctr >= cache.cfg.backedge_threshold then try_compile j fidx
            end
          end;
          go j ~observed pd (budget - 1)
        end
      end
    end
    else begin
      (* out-of-text rip: the interpreter core faults on it exactly as
         the interpreter tiers do *)
      interp_step j ~observed pd rip off;
      go j ~observed pd (budget - 1)
    end
  end

let run j ~fuel =
  let cache = j.cache in
  if cache.owner != j.cpu.Cpu.image then begin
    (* the shared cache was retargeted at a (re)randomized image: dense
       state is per-layout, compiled entries await digest revalidation *)
    cache.owner <- j.cpu.Cpu.image;
    cache.cgen <- cache.cgen + 1;
    build_state cache j.cpu.Cpu.image
  end
  else if Array.length cache.slot = 0 then build_state cache j.cpu.Cpu.image;
  let pd = Image.predecoded j.cpu.Cpu.image in
  let observed = Option.is_some j.cpu.Cpu.observer in
  try go j ~observed pd fuel with Fault.Fault f -> Cpu.Faulted f

(* ------------------------------------------------------------------ *)
(* Attachment.                                                         *)
(* ------------------------------------------------------------------ *)

let attach ?config ?cache (cpu : Cpu.t) =
  let cache =
    match cache with
    | None -> create_cache ?config ~profile:cpu.Cpu.profile cpu.Cpu.image
    | Some c ->
        if c.profile != cpu.Cpu.profile then begin
          (* compiled code bakes cost constants in; a different profile
             invalidates the whole cache *)
          Hashtbl.reset c.tbl;
          c.profile <- cpu.Cpu.profile;
          c.cgen <- c.cgen + 1;
          c.slot <- [||]
        end;
        (match config with Some cfg -> c.cfg <- cfg | None -> ());
        c
  in
  let ctx =
    {
      t = cpu;
      regs = cpu.Cpu.regs;
      ymm = cpu.Cpu.ymm;
      mem = cpu.Cpu.mem;
      ic = cpu.Cpu.icache;
      cyc = [| 0.0 |];
      om = 0;
    }
  in
  let j = { cpu; cache; ctx } in
  Cpu.set_tier3 cpu (Some (fun _ ~fuel -> run j ~fuel));
  j

let detach cpu = Cpu.set_tier3 cpu None

(* Test hook: corrupt the cached entry for [entry] as a crashed
   rerandomization might leave it — stale generation, wrong digest. The
   probe path must invalidate and recompile it, never execute it. *)
let poison j ~entry =
  match Hashtbl.find_opt j.cache.tbl entry with
  | None -> false
  | Some f ->
      uninstall j.cache f;
      f.f_digest <- "<poisoned>";
      f.f_gen <- j.cache.cgen - 1;
      true
