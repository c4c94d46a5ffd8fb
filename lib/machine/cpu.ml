type site = cycles:float -> misses:int -> called:bool -> unit
type observer = rip:int -> site

type run_result = Halted | Fuel_exhausted | Faulted of Fault.t

type t = {
  mem : Mem.t;
  heap : Heap.t;
  image : Image.t;
  regs : int array;
  ymm : int array;
  mutable rip : int;
  mutable cmp_l : int;
  mutable cmp_r : int;
  mutable cycles : float;
  mutable insns : int;
  mutable calls : int;
  mutable depth : int;
  mutable max_depth : int;
  mutable halted : bool;
  mutable exit_code : int;
  profile : Cost.profile;
  icache : Icache.t;
  out : Buffer.t;
  input : string Queue.t;
  mutable sensitive_log : (int * int) list;
  mutable strict_align : bool;
  shadow : int list ref;  (* shadow stack of return addresses (CFI) *)
  inject : Inject.t option;  (* chaos fault injector, if attached *)
  mutable observer : observer option;  (* per-step hook; None = no cost *)
  mutable sites : site array array;
      (* [observer ~rip] per chunk of the image's decoder and instruction
         of its body ([Image.insn_index]), resolved on first fire; each
         [||] until the first observed step in that chunk after an
         attach *)
  mutable site_view : Image.view;  (* the chunk [site] last resolved in *)
  mutable site_arr : site array;  (* and its sites *)
  mutable fetch : Image.view;  (* the chunk [straight] last fetched from *)
  mutable btap : (t -> string -> unit) option;
      (* builtin-boundary tap; None = no cost *)
  mutable tier3 : (t -> fuel:int -> run_result) option;
      (* the JIT runner (Jit.attach); None = run takes the reference
         tier *)
}

let create ?(strict_align = false) ?inject ~profile ~mem ~heap image ~rip ~rsp =
  let t =
    {
      mem;
      heap;
      image;
      regs = Array.make 16 0;
      ymm = Array.make (16 * 8) 0;
      rip;
      cmp_l = 0;
      cmp_r = 0;
      cycles = 0.0;
      insns = 0;
      calls = 0;
      depth = 0;
      max_depth = 0;
      halted = false;
      exit_code = 0;
      profile;
      icache = Icache.create ~lines:profile.Cost.icache_lines
          ~line_bytes:profile.Cost.icache_line_bytes;
      out = Buffer.create 256;
      input = Queue.create ();
      sensitive_log = [];
      strict_align;
      shadow = ref [];
      inject;
      observer = None;
      sites = [||];
      site_view = Image.no_view;
      site_arr = [||];
      fetch = Image.no_view;
      btap = None;
      tier3 = None;
    }
  in
  t.regs.(Insn.reg_index RSP) <- rsp;
  t

(* Every field not named here is a value, copied by [with]; the named ones
   are the mutable structures, copied deep, and the attachments, left
   off. *)
let clone ?inject t =
  let mem = Mem.clone t.mem in
  let out = Buffer.create (Buffer.length t.out + 256) in
  Buffer.add_buffer out t.out;
  {
    t with
    mem;
    heap = Heap.clone t.heap ~mem;
    regs = Array.copy t.regs;
    ymm = Array.copy t.ymm;
    icache = Icache.copy t.icache;
    out;
    input = Queue.copy t.input;
    shadow = ref !(t.shadow);
    inject;
    observer = None;
    sites = [||];
    site_view = Image.no_view;
    site_arr = [||];
    fetch = Image.no_view;
    btap = None;
    tier3 = None;
  }

let reg_get t r = t.regs.(Insn.reg_index r)
let reg_set t r v = t.regs.(Insn.reg_index r) <- v

let eval_imm = function
  | Insn.Abs v -> v
  | Insn.Sym (s, _) -> invalid_arg ("Cpu: unresolved symbol " ^ s)

let eval_mem t (m : Insn.mem_operand) =
  let base = match m.base with Some r -> reg_get t r | None -> 0 in
  let index =
    match m.index with
    | Some (r, s) -> reg_get t r * Insn.scale_factor s
    | None -> 0
  in
  base + index + eval_imm m.disp

(* Data loads thread through the injector (when attached): a fraction of
   them return a corrupted value. Control-flow reads (ret, pop of return
   addresses via the shadow stack, builtin dispatch) are left alone so the
   CFI semantics stay honest. *)
let injected_load t v =
  match t.inject with Some inj -> Inject.on_load inj v | None -> v

let eval_op t = function
  | Insn.Imm i -> eval_imm i
  | Insn.Reg r -> reg_get t r
  | Insn.Mem m -> injected_load t (Mem.read_u64 t.mem (eval_mem t m))

let eval_op8 t = function
  | Insn.Imm i -> eval_imm i land 0xff
  | Insn.Reg r -> reg_get t r land 0xff
  | Insn.Mem m -> injected_load t (Mem.read_u8 t.mem (eval_mem t m)) land 0xff

let store_op t op v =
  match op with
  | Insn.Reg r -> reg_set t r v
  | Insn.Mem m -> Mem.write_u64 t.mem (eval_mem t m) v
  | Insn.Imm _ -> invalid_arg "Cpu: immediate destination"

let store_op8 t op v =
  match op with
  | Insn.Reg r -> reg_set t r (v land 0xff)
  | Insn.Mem m -> Mem.write_u8 t.mem (eval_mem t m) v
  | Insn.Imm _ -> invalid_arg "Cpu: immediate destination"

let eval_binop (op : Insn.binop) a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Imul -> a * b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)
  | Sar -> a asr (b land 63)

let eval_cond t (c : Insn.cond) =
  let l = t.cmp_l and r = t.cmp_r in
  match c with
  | Eq -> l = r
  | Ne -> l <> r
  | Lt -> l < r
  | Le -> l <= r
  | Gt -> l > r
  | Ge -> l >= r

let eval_target = function
  | Insn.TAbs a -> a
  | Insn.TSym (s, _) -> invalid_arg ("Cpu: unresolved target " ^ s)

let read_cstring t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    if Buffer.length buf > 4096 then Buffer.contents buf
    else
      let c = Mem.read_u8 t.mem a in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (a + 1)
      end
  in
  go addr

(* Intercepted library calls. Arguments follow the System V convention:
   rdi, rsi; result in rax. *)
let dispatch_builtin t name =
  let rdi = reg_get t RDI and rsi = reg_get t RSI in
  t.cycles <- t.cycles +. Cost.builtin_cost t.profile name;
  match name with
  | "malloc" ->
      (* Like libc: unserviceable requests yield NULL. *)
      let p = if rdi <= 0 then 0 else (try Heap.malloc t.heap rdi with Out_of_memory -> 0) in
      reg_set t RAX p
  | "malloc_pages" ->
      let p =
        if rdi <= 0 then 0 else (try Heap.malloc_pages t.heap rdi with Out_of_memory -> 0)
      in
      reg_set t RAX p
  | "free" ->
      (* Freeing a non-block is heap corruption: an abort in glibc terms. *)
      (match Heap.free t.heap rdi with
      | () -> reg_set t RAX 0
      | exception Invalid_argument _ ->
          Fault.raise_fault (Segv { addr = rdi; access = Write }))
  | "mprotect_noread" -> (
      let page = Addr.page_base rdi in
      match Mem.protect t.mem page Addr.page_size Perm.none with
      | () ->
          Mem.tag_guard t.mem page Addr.page_size;
          reg_set t RAX 0
      | exception Invalid_argument _ ->
          (* EINVAL on unmapped pages. *)
          reg_set t RAX (-1))
  | "print_int" ->
      Buffer.add_string t.out (string_of_int rdi);
      Buffer.add_char t.out '\n';
      reg_set t RAX 0
  | "print_str" ->
      Buffer.add_string t.out (read_cstring t rdi);
      Buffer.add_char t.out '\n';
      reg_set t RAX 0
  | "read_input" ->
      (* Copy the next queued message into [rdi], at most [rsi] bytes.
         The copy itself goes through checked writes: a message longer
         than the destination buffer really does smash the stack. *)
      let n =
        if Queue.is_empty t.input then 0
        else begin
          let s = Queue.pop t.input in
          let n = min (String.length s) rsi in
          for i = 0 to n - 1 do
            Mem.write_u8 t.mem (rdi + i) (Char.code s.[i])
          done;
          n
        end
      in
      reg_set t RAX n
  | "sensitive" ->
      t.sensitive_log <- (rdi, rsi) :: t.sensitive_log;
      reg_set t RAX 0
  | "backtrace" ->
      (* Unwind from our own return-address slot: the frame count of the
         active call chain, straight through any BTRA camouflage. *)
      let frames = Unwind.backtrace t.mem t.image ~ra_slot:(reg_get t RSP) in
      reg_set t RAX (List.length frames)
  | "exit" ->
      t.halted <- true;
      t.exit_code <- rdi
  | other -> invalid_arg ("Cpu: unknown builtin " ^ other)

let do_call t ~target ~next =
  t.calls <- t.calls + 1;
  t.depth <- t.depth + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth;
  let rsp = reg_get t RSP in
  (* Real hardware only crashes on misalignment when an aligned vector
     access hits the stack; strict mode makes every call check — the
     compiler test suites run with it on to catch frame-layout bugs. *)
  if t.strict_align && rsp land 15 <> 0 then
    Fault.raise_fault (Misaligned_stack { rip = t.rip; rsp });
  if t.image.Image.shadow_stack then t.shadow := next :: !(t.shadow);
  let rsp' = rsp - 8 in
  Mem.write_u64 t.mem rsp' next;
  reg_set t RSP rsp';
  t.rip <- target

(* Backward-edge CFI (Section 8.2): the return target must match the
   protected shadow copy of the call chain. *)
let shadow_check t ra =
  if t.image.Image.shadow_stack then begin
    match !(t.shadow) with
    | expected :: rest ->
        if ra <> expected then
          Fault.raise_fault (Cfi_violation { rip = t.rip; expected; got = ra });
        t.shadow := rest
    | [] -> Fault.raise_fault (Cfi_violation { rip = t.rip; expected = 0; got = ra })
  end

(* An intercepted library entry behaves like a real function body: perform
   the effect, then return through the address on the stack. Reached
   uniformly via call, indirect call, tail jump, or a ret into the entry
   (ret2libc). *)
let step_builtin t name =
  t.insns <- t.insns + 1;
  dispatch_builtin t name;
  (* The builtin-boundary tap fires after the effect, while the machine
     state still shows the call: args in RDI/RSI, result in RAX, any
     delivered bytes in memory. A dispatch that faulted never reaches the
     tap — the per-step observer is the hook that sees faulting steps. *)
  (match t.btap with None -> () | Some tap -> tap t name);
  if not t.halted then begin
    let rsp = reg_get t RSP in
    let ra = Mem.read_u64 t.mem rsp in
    shadow_check t ra;
    reg_set t RSP (rsp + 8);
    t.cycles <- t.cycles +. t.profile.Cost.ret;
    t.depth <- max 0 (t.depth - 1);
    t.rip <- ra
  end

(* The per-instruction core shared by the reference fetcher and tier 3's
   cold loop: icache charge, cycle accounting, and the dispatch itself.
   Both funnel here, so they cannot disagree on execution semantics —
   only the fetch (hash probes vs the bodies' decoded slots) differs, and the
   differential tests pin that down. *)
let execute t rip insn size =
  let misses = Icache.access t.icache ~addr:rip ~len:size in
  t.cycles <-
    t.cycles
    +. Cost.base_cost t.profile insn
    +. (float_of_int size /. t.profile.Cost.fetch_bytes_per_cycle)
    +. (float_of_int misses *. t.profile.Cost.icache_miss_penalty);
  t.insns <- t.insns + 1;
  let next = rip + size in
  match insn with
  | Mov (dst, src) ->
      store_op t dst (eval_op t src);
      t.rip <- next
  | Mov8 (dst, src) ->
      store_op8 t dst (eval_op8 t src);
      t.rip <- next
  | Lea (r, m) ->
      reg_set t r (eval_mem t m);
      t.rip <- next
  | Push o ->
      let v = eval_op t o in
      let rsp = reg_get t RSP - 8 in
      Mem.write_u64 t.mem rsp v;
      reg_set t RSP rsp;
      t.rip <- next
  | Pop r ->
      let rsp = reg_get t RSP in
      let v = Mem.read_u64 t.mem rsp in
      reg_set t RSP (rsp + 8);
      reg_set t r v;
      t.rip <- next
  | Binop (op, r, o) ->
      reg_set t r (eval_binop op (reg_get t r) (eval_op t o));
      t.rip <- next
  | Div (r, o) ->
      let d = eval_op t o in
      if d = 0 then Fault.raise_fault (Division_by_zero { rip });
      reg_set t r (reg_get t r / d);
      t.rip <- next
  | Rem (r, o) ->
      let d = eval_op t o in
      if d = 0 then Fault.raise_fault (Division_by_zero { rip });
      reg_set t r (reg_get t r mod d);
      t.rip <- next
  | Neg r ->
      reg_set t r (-reg_get t r);
      t.rip <- next
  | Cmp (a, b) ->
      t.cmp_l <- eval_op t a;
      t.cmp_r <- eval_op t b;
      t.rip <- next
  | Setcc (c, r) ->
      reg_set t r (if eval_cond t c then 1 else 0);
      t.rip <- next
  | Jmp tg -> t.rip <- eval_target tg
  | Jmp_ind o -> t.rip <- eval_op t o
  | Jcc (c, tg) ->
      if eval_cond t c then begin
        t.cycles <- t.cycles +. (t.profile.Cost.jcc_taken -. t.profile.Cost.jcc_not_taken);
        t.rip <- eval_target tg
      end
      else t.rip <- next
  | Call tg -> do_call t ~target:(eval_target tg) ~next
  | Call_ind o -> do_call t ~target:(eval_op t o) ~next
  | Ret ->
      let rsp = reg_get t RSP in
      let ra = Mem.read_u64 t.mem rsp in
      shadow_check t ra;
      reg_set t RSP (rsp + 8);
      t.depth <- max 0 (t.depth - 1);
      t.rip <- ra
  | Nop _ -> t.rip <- next
  | Trap -> Fault.raise_fault (Booby_trap { addr = rip })
  | Vload (i, m) ->
      let a = eval_mem t m in
      for k = 0 to 3 do
        t.ymm.((i * 8) + k) <- Mem.read_u64 t.mem (a + (8 * k))
      done;
      t.rip <- next
  | Vstore (m, i) ->
      let a = eval_mem t m in
      for k = 0 to 3 do
        Mem.write_u64 t.mem (a + (8 * k)) t.ymm.((i * 8) + k)
      done;
      t.rip <- next
  | Vload128 (i, m) ->
      let a = eval_mem t m in
      for k = 0 to 1 do
        t.ymm.((i * 8) + k) <- Mem.read_u64 t.mem (a + (8 * k))
      done;
      t.rip <- next
  | Vstore128 (m, i) ->
      let a = eval_mem t m in
      for k = 0 to 1 do
        Mem.write_u64 t.mem (a + (8 * k)) t.ymm.((i * 8) + k)
      done;
      t.rip <- next
  | Vload512 (i, m) ->
      let a = eval_mem t m in
      for k = 0 to 7 do
        t.ymm.((i * 8) + k) <- Mem.read_u64 t.mem (a + (8 * k))
      done;
      t.rip <- next
  | Vstore512 (m, i) ->
      let a = eval_mem t m in
      for k = 0 to 7 do
        Mem.write_u64 t.mem (a + (8 * k)) t.ymm.((i * 8) + k)
      done;
      t.rip <- next
  | Vzeroupper ->
      (* Zero bits 128-511 of every vector register. *)
      for i = 0 to 15 do
        for k = 2 to 7 do
          t.ymm.((i * 8) + k) <- 0
        done
      done;
      t.rip <- next
  | Halt ->
      t.halted <- true;
      t.exit_code <- reg_get t RAX

(* Reference dispatch: permission probe, builtin hash probe, then the
   [code] hash probe. Kept verbatim as the slow tier of the two-version
   contract (OSR-style): tier 3 must be bit-identical to this. *)
let step_uninstrumented t =
  if t.halted then invalid_arg "Cpu.step: halted";
  (match t.inject with
  | Some inj -> Inject.on_step inj ~mem:t.mem ~rip:t.rip
  | None -> ());
  let rip = t.rip in
  Mem.check_exec t.mem rip;
  match Hashtbl.find_opt t.image.Image.builtin_addrs rip with
  | Some name -> step_builtin t name
  | None -> (
      match Image.code_at t.image rip with
      | Some (insn, size) -> execute t rip insn size
      | None -> Fault.raise_fault (Invalid_opcode { addr = rip }))

(* Staged observation. An observer is applied in two stages: [obs ~rip]
   resolves everything static about one text address into a site, once,
   into the [sites] table of its chunk, which has one slot per body
   instruction ([Image.insn_index]); the site then fires after every step
   at that address. The sentinel marks unresolved slots, so an attach only
   pays for the chunks and instructions it actually sees, and [site]
   remembers the last chunk it resolved in, so a step that stays in it
   finds its site with one compare and an index read. Rips that start no
   instruction of a chunk (builtin stubs, wild jumps) resolve afresh on
   every fire. *)
let unresolved : site = fun ~cycles:_ ~misses:_ ~called:_ -> ()

(* The sites of chunk [v], allocated on first use. *)
let chunk_sites t (d : Image.decoder) (v : Image.view) =
  let i = v.Image.v_ci in
  if Array.length t.sites = 0 then t.sites <- Array.make (Array.length d.Image.d_chunks) [||];
  let arr = t.sites.(i) in
  if Array.length arr > 0 then arr
  else begin
    let arr = Array.make (Array.length v.Image.v_insns) unresolved in
    t.sites.(i) <- arr;
    arr
  end

let resolve t rip = match t.observer with None -> unresolved | Some obs -> obs ~rip

let rec site t rip =
  let v = t.site_view in
  let off = rip - v.Image.v_entry in
  if off >= 0 && off < v.Image.v_len then
    match Image.insn_index v off with
    | -1 -> resolve t rip
    | k ->
        let s = Array.unsafe_get t.site_arr k in
        if s != unresolved then s
        else begin
          let s = resolve t rip in
          Array.unsafe_set t.site_arr k s;
          s
        end
  else if Option.is_some t.observer then begin
    let d = Image.predecoded t.image in
    match Image.locate d rip with
    | -1 -> resolve t rip
    | i ->
        let v = Image.view d i in
        t.site_view <- v;
        t.site_arr <- chunk_sites t d v;
        site t rip
  end
  else unresolved

(* Fire [rip]'s site with the deltas since the snapshot. The site is bound
   before the call: written as one application, [site t rip ~cycles ...]
   compiles to a generic five-argument apply that allocates a partial
   application at every step. *)
let fire t rip ~cycles0 ~misses0 ~called =
  let s = site t rip in
  s ~cycles:(t.cycles -. cycles0) ~misses:(Icache.misses t.icache - misses0) ~called

(* A faulting step fires too, with [~called:false], before the fault
   propagates: post-mortems see the detonating instruction. *)
let fire_fault t rip ~cycles0 ~misses0 e =
  fire t rip ~cycles0 ~misses0 ~called:false;
  raise e

(* An observed step fires the site of the pre-step rip with this step's
   cycle/miss deltas. With no observer attached, [step] is the bare
   interpreter: the cycle totals are bit-identical. *)
let step t =
  match t.observer with
  | None -> step_uninstrumented t
  | Some _ -> (
      let rip0 = t.rip and cycles0 = t.cycles in
      let misses0 = Icache.misses t.icache and calls0 = t.calls in
      match step_uninstrumented t with
      | () -> fire t rip0 ~cycles0 ~misses0 ~called:(t.calls > calls0)
      | exception e -> fire_fault t rip0 ~cycles0 ~misses0 e)

let set_observer t obs =
  t.observer <- obs;
  t.sites <- [||];
  t.site_view <- Image.no_view;
  t.site_arr <- [||]

let tee (first : observer) (second : observer) : observer =
 fun ~rip ->
  let a = first ~rip and b = second ~rip in
  fun ~cycles ~misses ~called ->
    a ~cycles ~misses ~called;
    b ~cycles ~misses ~called

let attach_observer ?tee:(keep = false) t obs =
  match (keep, t.observer) with
  | true, Some prev -> set_observer t (Some (tee prev obs))
  | _ -> set_observer t (Some obs)

type builtin_tap = t -> string -> unit

let set_builtin_tap t tap = t.btap <- tap

let rec is_break (rip : int) = function
  | [] -> false
  | a :: rest -> a = rip || is_break rip rest

(* The reference loop, with and without breakpoints. *)
let run_until t ~fuel ~break =
  let rec go budget =
    if t.halted then Error Halted
    else if budget <= 0 then Error Fuel_exhausted
    else if is_break t.rip break then Ok ()
    else begin
      step t;
      go (budget - 1)
    end
  in
  try go fuel with Fault.Fault f -> Error (Faulted f)

let run_reference t ~fuel =
  match run_until t ~fuel ~break:[] with Error r -> r | Ok () -> assert false

(* Unchecked native-endian read of an [Image.view.v_starts] entry. *)
external get_start : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

(* Whether the cold loop stops after the instruction at [rip] moved rip to
   [a] by a transfer: [a] is marked, or lies backward by less than
   [longest] bytes. *)
let[@inline] stops (d : Image.decoder) marks longest rip a =
  let o = a - d.Image.d_base in
  (o >= 0
  && o lsr 3 < Bytes.length marks
  && Char.code (Bytes.unsafe_get marks (o lsr 3)) land (1 lsl (o land 7)) <> 0)
  || (a < rip && rip - a < longest)

(* Straight-line stepping over the placed bodies: the loop tier 3's cold
   path runs in (lib/machine/jit.ml). The fetch is one TLB exec probe,
   then the current chunk's view ([Image.view]): its body's starts name
   the instruction at rip, and a relocated one is read from the view's
   fix-ups. The chunk is looked up ([Image.locate]) only when rip leaves
   it, so a straight-line step pays one bounds compare. The observer and
   injector dispatches are absent (tier 3 never runs under an injector,
   and observed runs take [straight_observed]). It returns just after a
   transfer of control the JIT must see ([stops]) — onto an address set
   in the [marks] bitmap (one bit per text byte), or backward by less
   than [longest] bytes — leaving the transferring instruction's address
   in [from]; otherwise it runs until halt or the end of the budget.
   Returns the budget left, and leaves the current view in [t.fetch] for
   the next call to start from. A rip outside every chunk is a builtin
   stub or no instruction at all (Invalid_opcode), exactly as the
   reference fetch reports it. It lives here, beside [execute], so the
   per-step calls are direct. The observed twin is [straight_observed]. *)
let rec straight t d (v : Image.view) marks longest from budget =
  if budget <= 0 || t.halted then begin
    t.fetch <- v;
    budget
  end
  else begin
    let rip = t.rip in
    Mem.check_exec t.mem rip;
    let off = rip - v.Image.v_entry in
    if off >= 0 && off < v.Image.v_len then begin
      let e = Int32.to_int (get_start v.Image.v_starts (off lsl 2)) in
      let next =
        if e > 0 then begin
          let size = Array.unsafe_get v.Image.v_sizes (e - 1) in
          execute t rip (Array.unsafe_get v.Image.v_insns (e - 1)) size;
          rip + size
        end
        else if e < 0 then begin
          let k = -e - 1 in
          let insn = Array.unsafe_get v.Image.v_fix k in
          let insn = if insn != Image.unfixed then insn else Image.fixed d v k in
          let size = v.Image.v_sizes.((Array.unsafe_get v.Image.v_relocs k).Image.r_index) in
          execute t rip insn size;
          rip + size
        end
        else Fault.raise_fault (Invalid_opcode { addr = rip })
      in
      let a = t.rip in
      if a <> next && stops d marks longest rip a then begin
        from := rip;
        t.fetch <- v;
        budget - 1
      end
      else straight t d v marks longest from (budget - 1)
    end
    else
      match Image.locate d rip with
      | -1 -> (
          match Hashtbl.find_opt t.image.Image.builtin_addrs rip with
          | Some name ->
              step_builtin t name;
              if stops d marks longest rip t.rip then begin
                from := rip;
                t.fetch <- v;
                budget - 1
              end
              else straight t d v marks longest from (budget - 1)
          | None -> Fault.raise_fault (Invalid_opcode { addr = rip }))
      | i -> straight t d (Image.view d i) marks longest from budget
  end

(* [straight] with the observer fired in place: each step snapshots the
   counters, runs exactly as [straight] runs it, and fires its site with
   the step's deltas, as [step] does for the reference tier — on a
   faulting step too. A resolved site is read from the table in place
   (chunk [v_ci], body instruction [k]); [site] only resolves a new one.
   The loop, its stops and its budget are [straight]'s; only the fires
   are added, with no closure per step and no return to the caller
   between steps. *)
let rec straight_observed t d (v : Image.view) marks longest from budget =
  if budget <= 0 || t.halted then begin
    t.fetch <- v;
    budget
  end
  else begin
    let rip = t.rip in
    let cycles0 = t.cycles and misses0 = t.icache.Icache.miss_count and calls0 = t.calls in
    (match Mem.check_exec t.mem rip with
    | () -> ()
    | exception e -> fire_fault t rip ~cycles0 ~misses0 e);
    let off = rip - v.Image.v_entry in
    if off >= 0 && off < v.Image.v_len then begin
      let e = Int32.to_int (get_start v.Image.v_starts (off lsl 2)) in
      let k =
        if e > 0 then e - 1
        else if e < 0 then (Array.unsafe_get v.Image.v_relocs (-e - 1)).Image.r_index
        else fire_fault t rip ~cycles0 ~misses0 (Fault.Fault (Invalid_opcode { addr = rip }))
      in
      let insn =
        if e > 0 then Array.unsafe_get v.Image.v_insns k
        else
          let insn = Array.unsafe_get v.Image.v_fix (-e - 1) in
          if insn != Image.unfixed then insn else Image.fixed d v (-e - 1)
      in
      let size = Array.unsafe_get v.Image.v_sizes k in
      (match execute t rip insn size with
      | () -> ()
      | exception e -> fire_fault t rip ~cycles0 ~misses0 e);
      let sites = t.sites in
      let s =
        if v.Image.v_ci < Array.length sites then
          let arr = Array.unsafe_get sites v.Image.v_ci in
          if k < Array.length arr then Array.unsafe_get arr k else unresolved
        else unresolved
      in
      let s = if s != unresolved then s else site t rip in
      s ~cycles:(t.cycles -. cycles0) ~misses:(t.icache.Icache.miss_count - misses0)
        ~called:(t.calls > calls0);
      let a = t.rip in
      if a <> rip + size && stops d marks longest rip a then begin
        from := rip;
        t.fetch <- v;
        budget - 1
      end
      else straight_observed t d v marks longest from (budget - 1)
    end
    else
      match Image.locate d rip with
      | -1 ->
          (match Hashtbl.find_opt t.image.Image.builtin_addrs rip with
          | Some name -> (
              match step_builtin t name with
              | () -> ()
              | exception e -> fire_fault t rip ~cycles0 ~misses0 e)
          | None -> fire_fault t rip ~cycles0 ~misses0 (Fault.Fault (Invalid_opcode { addr = rip }))
          );
          fire t rip ~cycles0 ~misses0 ~called:(t.calls > calls0);
          if stops d marks longest rip t.rip then begin
            from := rip;
            t.fetch <- v;
            budget - 1
          end
          else straight_observed t d v marks longest from (budget - 1)
      | i -> straight_observed t d (Image.view d i) marks longest from budget
  end

(* Tier dispatch: an attached injector forces the reference tier (it
   must see every step, and compiled code has no injection points);
   otherwise the tier-3 runner runs when installed — observed or not,
   compiling or not — and the reference tier when not. Both produce
   identical counters and observer fires — the jit experiment and the
   differential suites pin that contract down. *)
let run t ~fuel =
  match (t.inject, t.tier3) with
  | None, Some jit -> jit t ~fuel
  | _ -> run_reference t ~fuel

let set_tier3 t f = t.tier3 <- f

let output t = Buffer.contents t.out

let push_input t s = Queue.push s t.input

(* Shared internals for the tier-3 compiler (lib/machine/jit.ml): its
   cold loop must funnel through the very same [execute] / [step_builtin]
   the reference tier uses, or the bit-identicality contract would rest
   on duplicated semantics. *)
module Internal = struct
  let site = site
  let unresolved = unresolved

  let straight t d ~marks ~longest ~from budget =
    match t.observer with
    | None -> straight t d t.fetch marks longest from budget
    | Some _ -> straight_observed t d t.fetch marks longest from budget
end
