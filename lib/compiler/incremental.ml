(* Per-function incremental code generation.

   The cache maps (IR function digest, diversification-slice digest,
   machine description) to the emitted body and its lowering metadata. A
   rebuild recompiles only functions whose key changed, fans the misses
   over the Domain pool, and re-links. The link plan (symbols interned,
   references resolved to ids) is cached beside the key memo, so a
   steady-state rerandomization (layout coordinates change, bodies do
   not) is one placement: integer layout arithmetic, no string tables.

   The slice digest does not hash the [Opts.t] closures themselves (they
   are opaque); it hashes their *outputs* at every point this function's
   emission will consult them: register pool, prolog traps, frame
   padding, the callee-side post offset, BTDP indices for both frame
   classes, alias substitutions for address-taken functions, and the
   per-call-site NOP and BTRA plans. BTRA planning draws from one shared
   stream across the whole program, so an IR edit in one function can
   shift the plans of another — probing the materialized plans (rather
   than the seed that produced them) makes the key catch exactly that.
   Decisions that cannot be materialized without running the register
   allocator (the frame-slot permutation's length) are covered by the
   caller's [salt], which must change whenever the per-function
   diversification seed does. *)

type stats = { hits : int; misses : int; missed : string list }

type entry = Asm.emitted * Emit.tvmeta * Link.template

type t = {
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  (* Key memoization: valid only while the same instrumented program is
     rebuilt under the same caller-asserted key token — the steady-state
     rotation path, where only link-level options change between builds.
     Builds without a token always recompute. The raw functions' templates
     ride along: under one token they are the same raw functions. *)
  mutable memo_ctx : (string * Ir.program) option;
  memo_keys : (string, string) Hashtbl.t;
  mutable memo_raw : (Asm.emitted * Link.template) list;
  mutable validated : Ir.program option;
  (* The link plan of the memoized program over the table's current
     entries, with its lowering metadata: a rotation whose plan is still
     valid is one placement. [gen] counts the events that drop it — a
     memo reset, [poison] and installed misses — so a plan built
     outside the lock is only kept if none happened meanwhile. *)
  mutable plan : (Link.plan * (string * Emit.tvmeta) list) option;
  mutable gen : int;
}

let create () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 4096;
    memo_ctx = None;
    memo_keys = Hashtbl.create 4096;
    memo_raw = [];
    validated = None;
    plan = None;
    gen = 0;
  }

(* Callers hold the lock. *)
let invalidate t =
  t.plan <- None;
  t.gen <- t.gen + 1

let reset_memo t =
  Hashtbl.reset t.memo_keys;
  t.memo_ctx <- None;
  t.memo_raw <- [];
  invalidate t

let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let func_digest (f : Ir.func) = Digest.string (Marshal.to_string f [])

let add_operand ~(opts : Opts.t) b (op : Ir.operand) =
  match op with
  | Ir.Func fn ->
      Buffer.add_string b (opts.func_alias fn);
      Buffer.add_char b '|'
  | Ir.Const _ | Ir.Var _ | Ir.Global _ -> ()

let slice_digest ~(opts : Opts.t) ~salt (f : Ir.func) =
  let fname = f.name in
  let b = Buffer.create 512 in
  let str s = Buffer.add_string b s; Buffer.add_char b ';' in
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ';' in
  str salt;
  str (Mdesc.fingerprint opts.mdesc);
  int (if opts.oia then 1 else 0);
  str (match opts.btdp_array_sym with Some s -> s | None -> "");
  str (Marshal.to_string (opts.reg_pool ~fname) []);
  int (opts.prolog_traps ~fname);
  int (opts.slot_pad_bytes ~fname);
  int (opts.post_offset_words ~fname);
  str (Marshal.to_string (opts.btdp_indices ~fname ~writes_frame:true) []);
  str (Marshal.to_string (opts.btdp_indices ~fname ~writes_frame:false) []);
  (* Alias substitutions for every address-taken function operand. *)
  let site = ref 0 in
  List.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          (match i with
          | Ir.Mov (_, op) -> add_operand ~opts b op
          | Ir.Binop (_, _, a, c) | Ir.Cmp (_, _, a, c) ->
              add_operand ~opts b a;
              add_operand ~opts b c
          | Ir.Load (_, base, _) | Ir.Load8 (_, base, _) -> add_operand ~opts b base
          | Ir.Store (base, _, v) | Ir.Store8 (base, _, v) ->
              add_operand ~opts b base;
              add_operand ~opts b v
          | Ir.Slot_addr _ -> ()
          | Ir.Call (_, callee, args) ->
              List.iter (add_operand ~opts b) args;
              let kind =
                match callee with
                | Ir.Direct name -> Opts.Known name
                | Ir.Indirect op ->
                    add_operand ~opts b op;
                    Opts.Unknown_indirect
                | Ir.Builtin name -> Opts.Lib name
              in
              (* Per-site decisions, numbered exactly as the emitter
                 numbers them. *)
              str (Marshal.to_string (opts.nops_before_call ~fname ~site:!site) []);
              str
                (Marshal.to_string
                   (opts.callsite_btra ~fname ~site:!site ~callee:kind)
                   []);
              incr site);
          ())
        blk.body;
      match blk.term with
      | Ir.Ret (Some op) | Ir.Cond_br (op, _, _) -> add_operand ~opts b op
      | Ir.Ret None | Ir.Br _ -> ())
    f.blocks;
  Digest.string (Buffer.contents b)

let key ~opts ~salt f =
  Digest.to_hex (func_digest f) ^ Digest.to_hex (slice_digest ~opts ~salt f)

let poison t ~opts ~salt f ~payload =
  let e, m = payload in
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.table (key ~opts ~salt f) (e, m, Link.template e);
      (* The planted entry must survive key memoization and the plan. *)
      reset_memo t)

let raw_pairs (opts : Opts.t) =
  let size = opts.mdesc.Mdesc.insn_size in
  List.map
    (fun r ->
      let e = Asm.of_raw ~size r in
      (e, Link.template e))
    opts.raw_funcs

let memo_hit t ~key_token (p : Ir.program) =
  match (t.memo_ctx, key_token) with
  | Some (tok, q), Some tok' -> String.equal tok tok' && q == p
  | _ -> false

(* The cache keys of [p]'s functions and the templated raw functions. *)
let keys_of t ~key_token ~opts ~salt (p : Ir.program) =
  if memo_hit t ~key_token p then
    (List.map (fun (f : Ir.func) -> (f, Hashtbl.find t.memo_keys f.name)) p.funcs, t.memo_raw)
  else begin
    let ks = List.map (fun f -> (f, key ~opts ~salt f)) p.funcs in
    let raw = raw_pairs opts in
    reset_memo t;
    (match key_token with
    | None -> ()
    | Some tok ->
        List.iter (fun ((f : Ir.func), k) -> Hashtbl.replace t.memo_keys f.name k) ks;
        t.memo_ctx <- Some (tok, p);
        t.memo_raw <- raw);
    (ks, raw)
  end

(* The plan of a build without a valid cached one: classify against the
   cache, emit the misses, plan the link. *)
let plan_of ?jobs t ~key_token ~(opts : Opts.t) ~salt (p : Ir.program) =
  (* Phase 1 (under the lock): classify against the cache. *)
  let keyed, raw, looked, gen0 =
    Mutex.protect t.lock (fun () ->
        let keyed, raw = keys_of t ~key_token ~opts ~salt p in
        (keyed, raw, List.map (fun (f, k) -> (f, k, Hashtbl.find_opt t.table k)) keyed, t.gen))
  in
  let misses = List.filter_map (fun (f, k, e) -> if e = None then Some (f, k) else None) looked in
  (* Phase 2 (outside the lock): emit only the invalidated functions,
     fanned over the Domain pool. Emission only reads [opts]. *)
  let compiled =
    R2c_util.Parallel.map ?jobs
      (fun ((f : Ir.func), k) ->
        let e, m = Emit.emit_func_meta ~opts f in
        (f.name, k, (e, m, Link.template e)))
      misses
  in
  (* Phase 3 (under the lock): install results, count traffic. The plan
     built below may be kept only if the table is unchanged since phase 1
     apart from these installs. *)
  let fresh = Hashtbl.create (max 16 (List.length compiled)) in
  List.iter (fun (name, k, e) -> Hashtbl.replace fresh name (k, e)) compiled;
  let stats, gen =
    Mutex.protect t.lock (fun () ->
        let clean = t.gen = gen0 in
        if compiled <> [] then begin
          List.iter (fun (_, k, e) -> Hashtbl.replace t.table k e) compiled;
          invalidate t
        end;
        let hits = List.length keyed - List.length misses in
        ( {
            hits;
            misses = List.length misses;
            missed = List.map (fun ((f : Ir.func), _) -> f.name) misses;
          },
          if clean then Some t.gen else None ))
  in
  let entries =
    List.map
      (fun ((f : Ir.func), k, cached) ->
        match cached with
        | Some e -> e
        | None -> (
            match Hashtbl.find_opt fresh f.name with
            | Some (k', e) when String.equal k k' -> e
            | _ -> assert false))
      looked
  in
  let pairs = List.map (fun (e, _, t) -> (e, t)) entries @ raw in
  let plan = Link.plan ~opts ~main:p.main pairs p.globals in
  let meta = List.map2 (fun (f : Ir.func) (_, m, _) -> (f.name, m)) p.funcs entries in
  (match (key_token, gen) with
  | Some _, Some g -> Mutex.protect t.lock (fun () -> if t.gen = g then t.plan <- Some (plan, meta))
  | _ -> ());
  (plan, meta, stats)

let build_with_meta ?jobs ?key_token t ~(opts : Opts.t) ~salt (p : Ir.program) =
  (match t.validated with
  | Some q when q == p -> ()
  | _ -> (
      match Validate.check p with
      | [] -> t.validated <- Some p
      | errors -> raise (Driver.Invalid_program errors)));
  (* A steady-state rotation: same memoized program, same entries — every
     function hits and the cached plan is placed as-is. *)
  let cached =
    Mutex.protect t.lock (fun () ->
        match t.plan with
        | Some (plan, meta) when memo_hit t ~key_token p ->
            Some (plan, meta, { hits = List.length p.funcs; misses = 0; missed = [] })
        | _ -> None)
  in
  let plan, meta, stats =
    match cached with Some c -> c | None -> plan_of ?jobs t ~key_token ~opts ~salt p
  in
  (Link.place plan ~opts, meta, stats)
