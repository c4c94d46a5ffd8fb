open R2c_machine

type row = {
  name : string;
  cycles : float;
  insns : int;
  misses : int;
  calls : int;
  callsite_cycles : float;
  prologue_cycles : float;
  icache_cycles : float;
}

(* Accumulators are columns indexed by accumulator number: compiled
   functions first (ascending by entry, as [entries]), then pseudo-functions
   (builtins, unknown code) in registration order. Float columns are flat
   float arrays, so accumulating allocates nothing. *)
type t = {
  img : Image.t;
  dec : Image.decoder;
  cpen : float;  (* icache miss penalty *)
  (* Compiled functions, ascending by entry: (entry, end, prologue end). *)
  entries : (int * int * int) array;
  chunk_acc : int array;
      (* per chunk of [dec]: the function whose extent is exactly the
         chunk's, or -1 ([_start], or a chunk no function matches), whose
         addresses take [acc_slow] *)
  mutable n : int;  (* accumulators in use *)
  mutable names : string array;
  mutable col_cycles : float array;
  mutable col_insns : int array;
  mutable col_misses : int array;
  mutable col_calls : int array;
  mutable col_callsite : float array;
  mutable col_prologue : float array;
  mutable col_icache : float array;
  pseudo : (string, int) Hashtbl.t;  (* pseudo-function name -> accumulator *)
  edges : (int, int ref) Hashtbl.t;  (* [edge_key caller callee] -> count *)
}

let create ~profile (img : Image.t) =
  let funcs = img.Image.funcs in
  let entries =
    Array.map
      (fun (f : Image.func_info) ->
        let prologue_end =
          match Image.find_symbol img (f.fname ^ ".Lprolog") with
          | Some a when a > f.entry && a <= f.entry + f.code_len -> a
          | Some _ | None -> f.entry
        in
        (f.entry, f.entry + f.code_len, prologue_end))
      funcs
  in
  let n = Array.length funcs in
  let dec = Image.predecoded img in
  (* Both ascending by entry: one merge. *)
  let chunk_acc =
    let k = ref 0 in
    Array.mapi
      (fun ci entry ->
        while !k < n && funcs.(!k).Image.entry < entry do
          incr k
        done;
        if !k < n && funcs.(!k).Image.entry = entry
           && entry + funcs.(!k).Image.code_len = dec.Image.d_ends.(ci)
        then !k
        else -1)
      dec.Image.d_entries
  in
  let cap = n + 8 in
  {
    img;
    dec;
    cpen = profile.Cost.icache_miss_penalty;
    entries;
    chunk_acc;
    n;
    names = Array.init cap (fun i -> if i < n then funcs.(i).Image.fname else "");
    col_cycles = Array.make cap 0.0;
    col_insns = Array.make cap 0;
    col_misses = Array.make cap 0;
    col_calls = Array.make cap 0;
    col_callsite = Array.make cap 0.0;
    col_prologue = Array.make cap 0.0;
    col_icache = Array.make cap 0.0;
    pseudo = Hashtbl.create 16;
    edges = Hashtbl.create 64;
  }

(* Largest entry <= rip with rip inside the body, by binary search. *)
let func_index t rip =
  let n = Array.length t.entries in
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let entry, fin, _ = t.entries.(mid) in
      if rip < entry then go lo (mid - 1)
      else if rip >= fin then go (mid + 1) hi
      else Some mid
  in
  go 0 (n - 1)

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a z = Array.init cap (fun i -> if i < Array.length a then a.(i) else z) in
  t.names <- ext t.names "";
  t.col_cycles <- ext t.col_cycles 0.0;
  t.col_insns <- ext t.col_insns 0;
  t.col_misses <- ext t.col_misses 0;
  t.col_calls <- ext t.col_calls 0;
  t.col_callsite <- ext t.col_callsite 0.0;
  t.col_prologue <- ext t.col_prologue 0.0;
  t.col_icache <- ext t.col_icache 0.0

let pseudo t name =
  match Hashtbl.find_opt t.pseudo name with
  | Some i -> i
  | None ->
      if t.n = Array.length t.names then grow t;
      let i = t.n in
      t.names.(i) <- name;
      t.n <- i + 1;
      Hashtbl.replace t.pseudo name i;
      i

(* Accumulator for code no function's chunk covers, registering a
   pseudo-function on first sight. *)
let acc_slow t rip =
  match func_index t rip with
  | Some i -> i
  | None -> (
      match Hashtbl.find_opt t.img.Image.builtin_addrs rip with
      | Some name -> pseudo t ("<" ^ name ^ ">")
      | None -> pseudo t "<unknown>")

(* Accumulator for the code at [rip], covered by chunk [ci] (or -1). *)
let acc_in t ci rip =
  if ci >= 0 then
    let i = Array.unsafe_get t.chunk_acc ci in
    if i >= 0 then i else acc_slow t rip
  else acc_slow t rip

let acc_at t rip = acc_in t (Image.locate t.dec rip) rip

(* The BTRA call-site instrumentation shapes (Figures 3/4) plus the
   call-site NOPs of Section 4.3. Plain register pushes (stack arguments)
   and the call itself are ordinary execution — present in the baseline
   too. Resolving a relocation keeps the constructor, so the body's own
   instruction classifies its placed form. *)
let is_callsite_insn = function
  | Insn.Push (Insn.Imm _) -> true
  | Insn.Vload _ | Insn.Vstore _ | Insn.Vload128 _ | Insn.Vstore128 _
  | Insn.Vload512 _ | Insn.Vstore512 _ | Insn.Vzeroupper -> true
  | Insn.Nop _ -> true
  | _ -> false

(* Accumulator numbers stay far below 2^30. *)
let edge_key caller callee = (caller lsl 30) lor callee

let record_edge t caller callee =
  let key = edge_key caller callee in
  match Hashtbl.find_opt t.edges key with
  | Some r -> incr r
  | None -> Hashtbl.replace t.edges key (ref 1)

type kind = Prologue | Callsite | Other

let kind_index = function Prologue -> 0 | Callsite -> 1 | Other -> 2

(* The kind of the instruction at [rip] of accumulator [i], covered by
   chunk [ci] (or -1): prologue by one compare against the function's
   prologue bound, else by the instruction the chunk's body has there. *)
let kind_in t i ci rip =
  if
    i < Array.length t.entries
    &&
    let entry, _, prologue_end = t.entries.(i) in
    rip >= entry && rip < prologue_end
  then Prologue
  else if ci < 0 then Other
  else
    let v = Image.view t.dec ci in
    match Image.insn_index v (rip - v.Image.v_entry) with
    | -1 -> Other
    | k -> if is_callsite_insn v.Image.v_insns.(k) then Callsite else Other

(* The site of accumulator [i] and kind [kind], for [cpu]: it adds one
   step's deltas into the columns, and counts the call edge when the step
   called. *)
let make_site t (cpu : Cpu.t) i kind : Cpu.site =
 fun ~cycles ~misses ~called ->
  let icache_c = float_of_int misses *. t.cpen in
  t.col_cycles.(i) <- t.col_cycles.(i) +. cycles;
  t.col_insns.(i) <- t.col_insns.(i) + 1;
  t.col_misses.(i) <- t.col_misses.(i) + misses;
  t.col_icache.(i) <- t.col_icache.(i) +. icache_c;
  (match kind with
  | Prologue -> t.col_prologue.(i) <- t.col_prologue.(i) +. (cycles -. icache_c)
  | Callsite -> t.col_callsite.(i) <- t.col_callsite.(i) +. (cycles -. icache_c)
  | Other -> ());
  if called then begin
    let callee = acc_at t cpu.Cpu.rip in
    t.col_calls.(callee) <- t.col_calls.(callee) + 1;
    record_edge t i callee
  end

(* The staged observer. Every address of one function and kind shares one
   site, built on first sight: resolving an address is a chunk lookup, an
   array read for the accumulator and a classification, and allocates
   nothing once its site exists. *)
let observer t (cpu : Cpu.t) : Cpu.observer =
  let sites = ref [||] in
 fun ~rip ->
  let ci = Image.locate t.dec rip in
  let i = acc_in t ci rip in
  let kind = kind_in t i ci rip in
  let j = (3 * i) + kind_index kind in
  if j >= Array.length !sites then begin
    let old = !sites in
    sites := Array.make (3 * Array.length t.names) None;
    Array.blit old 0 !sites 0 (Array.length old)
  end;
  match !sites.(j) with
  | Some s -> s
  | None ->
      let s = make_site t cpu i kind in
      !sites.(j) <- Some s;
      s

let attach ?tee t cpu = Cpu.attach_observer ?tee cpu (observer t cpu)


let row_of t i =
  {
    name = t.names.(i);
    cycles = t.col_cycles.(i);
    insns = t.col_insns.(i);
    misses = t.col_misses.(i);
    calls = t.col_calls.(i);
    callsite_cycles = t.col_callsite.(i);
    prologue_cycles = t.col_prologue.(i);
    icache_cycles = t.col_icache.(i);
  }

let rows t =
  List.init t.n (row_of t)
  |> List.filter (fun r -> r.insns > 0)
  |> List.sort (fun a b -> compare b.cycles a.cycles)

let total t =
  List.fold_left
    (fun acc (r : row) ->
      {
        acc with
        cycles = acc.cycles +. r.cycles;
        insns = acc.insns + r.insns;
        misses = acc.misses + r.misses;
        calls = acc.calls + r.calls;
        callsite_cycles = acc.callsite_cycles +. r.callsite_cycles;
        prologue_cycles = acc.prologue_cycles +. r.prologue_cycles;
        icache_cycles = acc.icache_cycles +. r.icache_cycles;
      })
    {
      name = "total";
      cycles = 0.0;
      insns = 0;
      misses = 0;
      calls = 0;
      callsite_cycles = 0.0;
      prologue_cycles = 0.0;
      icache_cycles = 0.0;
    }
    (rows t)

(* In a total order: count descending, then caller, then callee. *)
let edges t =
  let mask = (1 lsl 30) - 1 in
  Hashtbl.fold
    (fun key n acc -> (t.names.(key lsr 30), t.names.(key land mask), !n) :: acc)
    t.edges []
  |> List.sort (fun (a1, b1, n1) (a2, b2, n2) ->
         if n1 <> n2 then compare n2 n1
         else
           let c = String.compare a1 a2 in
           if c <> 0 then c else String.compare b1 b2)

let fingerprint t =
  let row r =
    Printf.sprintf "%s:%Lx:%d:%d:%d:%Lx:%Lx:%Lx" r.name (Int64.bits_of_float r.cycles)
      r.insns r.misses r.calls
      (Int64.bits_of_float r.callsite_cycles)
      (Int64.bits_of_float r.prologue_cycles)
      (Int64.bits_of_float r.icache_cycles)
  in
  String.concat ";" (List.map row (total t :: rows t))
  ^ "|"
  ^ String.concat ";" (List.map (fun (a, b, n) -> Printf.sprintf "%s>%s:%d" a b n) (edges t))

let report ?(top = 15) ?(title = "top functions") t =
  let buf = Buffer.create 1024 in
  let tot = total t in
  let rs = rows t in
  Buffer.add_string buf
    (Printf.sprintf "== %s (%d functions, %.0f cycles, %d insns, %d misses) ==\n" title
       (List.length rs) tot.cycles tot.insns tot.misses);
  Buffer.add_string buf
    (Printf.sprintf "%-28s %12s %6s %10s %8s %6s %10s %10s %10s\n" "function" "cycles"
       "cyc%" "insns" "misses" "calls" "callsite" "prologue" "icache");
  let shown = List.filteri (fun i _ -> i < top) rs in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %12.0f %5.1f%% %10d %8d %6d %10.0f %10.0f %10.0f\n" r.name
           r.cycles
           (if tot.cycles > 0.0 then 100.0 *. r.cycles /. tot.cycles else 0.0)
           r.insns r.misses r.calls r.callsite_cycles r.prologue_cycles r.icache_cycles))
    shown;
  let rest = List.filteri (fun i _ -> i >= top) rs in
  if rest <> [] then begin
    let rc = List.fold_left (fun a r -> a +. r.cycles) 0.0 rest in
    Buffer.add_string buf
      (Printf.sprintf "%-28s %12.0f %5.1f%%  (%d more)\n" "..." rc
         (if tot.cycles > 0.0 then 100.0 *. rc /. tot.cycles else 0.0)
         (List.length rest))
  end;
  let es = edges t in
  if es <> [] then begin
    Buffer.add_string buf "hot call edges:\n";
    List.iteri
      (fun i (caller, callee, n) ->
        if i < top then
          Buffer.add_string buf (Printf.sprintf "  %-26s -> %-26s %8d\n" caller callee n))
      es
  end;
  Buffer.contents buf

let sanitize_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    s

let publish t ~prefix metrics =
  let p = sanitize_name prefix in
  let c name help read = Metrics.counter ~help metrics (p ^ name) (fun () -> read (total t)) in
  c "_cycles_total" "cycles attributed by the profiler" (fun tot -> int_of_float tot.cycles);
  c "_insns_total" "instructions retired" (fun tot -> tot.insns);
  c "_icache_misses_total" "icache misses" (fun tot -> tot.misses);
  c "_calls_total" "call entries" (fun tot -> tot.calls);
  let h =
    Metrics.histogram ~help:"per-function cycle totals" metrics (p ^ "_function_cycles")
  in
  List.iter (fun (r : row) -> Metrics.observe h (int_of_float r.cycles)) (rows t)
