type func_info = {
  fname : string;
  entry : int;
  code_len : int;
  is_booby_trap : bool;
}

type pslot =
  | P_none
  | P_insn of Insn.t * int
  | P_builtin of string

type reloc = {
  r_index : int;
  r_off : int;
  r_refs : int array;
}

type body = {
  b_text : string;
  b_insns : Insn.t array;
  b_sizes : int array;
  b_relocs : reloc array;
  b_ext : string array;
  b_slots : pslot array option Atomic.t;
}

type chunk = {
  c_entry : int;
  c_body : body;
  c_ext : int array;
}

type jit_cache = ..

type t = {
  code : (int, Insn.t * int) Hashtbl.t Lazy.t;
  code_list : (int * Insn.t * int) array Lazy.t;
  chunks : chunk array;
  index : pslot array option Atomic.t;
  jit : jit_cache list Atomic.t;
  text_base : int;
  text_len : int;
  text_perm : Perm.t;
  data_base : int;
  data_len : int;
  data_words : int array Lazy.t;
  data_bytes : (int * string) array Lazy.t;
  sym_ids : (string, int) Hashtbl.t;
  sym_addrs : int array;
  funcs : func_info array;
  entry : int;
  builtin_addrs : (int, string) Hashtbl.t;
  stack_bytes : int;
  heap_base : int;
  unwind_funcs : (int * int * int * int) array;
  unwind_sites : (int, int) Hashtbl.t;
  checked_sites : (int, unit) Hashtbl.t;
  code_ptr_slots : (int, unit) Hashtbl.t Lazy.t;
  shadow_stack : bool;
}

let builtin_names =
  [
    "malloc"; "malloc_pages"; "free"; "mprotect_noread";
    "print_int"; "print_str"; "read_input"; "sensitive"; "exit"; "backtrace";
  ]

(* An image is shared by every process of it, in any domain, and a bare
   [Lazy.force] raises [Lazy.Undefined] in a domain that finds another one
   part-way through forcing the same lazy: that domain waits for the
   value instead. A forced lazy costs one [Lazy.force], so the reference
   tier can fetch through [code] on every step. *)
let rec force l =
  match Lazy.force l with
  | v -> v
  | exception Lazy.Undefined ->
      Domain.cpu_relax ();
      force l

let code_at img addr = Hashtbl.find_opt (force img.code) addr

let find_symbol img name =
  match Hashtbl.find_opt img.sym_ids name with
  | Some id -> Some img.sym_addrs.(id)
  | None -> None

let symbol img name =
  match find_symbol img name with Some a -> a | None -> raise Not_found

let iter_symbols img f = Hashtbl.iter (fun name id -> f name img.sym_addrs.(id)) img.sym_ids

(* [funcs] is in placement order, which is ascending by entry, and bodies
   do not overlap: only the last function entered at or below [addr] can
   cover it. *)
let func_of_addr img addr =
  let fs = img.funcs in
  let lo = ref 0 and hi = ref (Array.length fs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if fs.(mid).entry <= addr then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None
  else
    let f = fs.(!lo - 1) in
    if addr < f.entry + f.code_len then Some f else None

(* Pseudo-encoding: byte 0 is an opcode tag, later bytes mix the tag with
   the position. Deterministic, so a leaked text page is a stable artifact
   a disclosure attack can fingerprint. *)
let opcode_tag : Insn.t -> int = function
  | Mov _ -> 0x48
  | Mov8 _ -> 0x8a
  | Lea _ -> 0x8d
  | Push _ -> 0x68
  | Pop _ -> 0x58
  | Binop _ -> 0x01
  | Div _ | Rem _ -> 0xf7
  | Neg _ -> 0xf6
  | Cmp _ -> 0x39
  | Setcc _ -> 0x0f
  | Jmp _ -> 0xe9
  | Jmp_ind _ -> 0xfe
  | Jcc _ -> 0x0f
  | Call _ -> 0xe8
  | Call_ind _ -> 0xff
  | Ret -> 0xc3
  | Nop _ -> 0x90
  | Trap -> 0xcc
  | Vload _ -> 0xc5
  | Vstore _ -> 0xc4
  | Vload128 _ -> 0x66
  | Vstore128 _ -> 0x67
  | Vload512 _ -> 0x62
  | Vstore512 _ -> 0x63
  | Vzeroupper -> 0xc5
  | Halt -> 0xf4

let encode_byte insn k =
  if k = 0 then opcode_tag insn
  else (opcode_tag insn * 31 + k * 17) land 0xff

(* A body's bytes depend only on the instructions and their emission-time
   sizes, never on where the body lands: resolution keeps every opcode
   tag, so the encoding is computed once per emitted body and placement
   copies it. Each symbol reference of a relocation is recorded in
   [Insn.map_syms] visiting order as either an offset from the body's
   entry (its own name and local labels: [locals]) or an index into the
   body's distinct external symbols, which the linker resolves once per
   placement. *)
let body ~locals insns sizes =
  let len = Array.fold_left ( + ) 0 sizes in
  let text = Bytes.create len in
  let local =
    lazy
      (let h = Hashtbl.create (2 * List.length locals + 1) in
       List.iter (fun (s, off) -> Hashtbl.replace h s off) locals;
       h)
  in
  let ext = Hashtbl.create 8 in
  let code s =
    match Hashtbl.find_opt (Lazy.force local) s with
    | Some off -> off
    | None -> (
        match Hashtbl.find_opt ext s with
        | Some k -> -k - 1
        | None ->
            let k = Hashtbl.length ext in
            Hashtbl.replace ext s k;
            -k - 1)
  in
  let relocs = ref [] in
  let off = ref 0 in
  Array.iteri
    (fun i insn ->
      let size = sizes.(i) in
      for k = 0 to size - 1 do
        Bytes.unsafe_set text (!off + k) (Char.unsafe_chr (encode_byte insn k))
      done;
      if not (Insn.is_resolved insn) then begin
        let refs = ref [] in
        ignore
          (Insn.map_syms
             (fun s o ->
               refs := code s :: !refs;
               o)
             insn);
        (* A zero-length instruction owns no slot (see [predecode]), but
           its symbols still count as references. *)
        if size > 0 then
          relocs := { r_index = i; r_off = !off; r_refs = Array.of_list (List.rev !refs) } :: !relocs
      end;
      off := !off + size)
    insns;
  let b_ext = Array.make (Hashtbl.length ext) "" in
  Hashtbl.iter (fun s k -> b_ext.(k) <- s) ext;
  {
    b_text = Bytes.unsafe_to_string text;
    b_insns = insns;
    b_sizes = sizes;
    b_relocs = Array.of_list (List.rev !relocs);
    b_ext;
    b_slots = Atomic.make None;
  }

(* A body's predecoded slots, [P_insn (insn, size)] per instruction as
   emitted. Built on the first predecode of any image the body is placed
   in, then shared by every later one, so the templates of a rotating
   program allocate their slots once, not once per rotation. Deferred
   rather than computed with the bytes because images that are never run
   fast — cold references, audits — would only pay its memory; an atomic
   cell rather than a [Lazy] because bodies are shared across domains,
   where two domains racing to build it just produce equal arrays. *)
let body_slots b =
  match Atomic.get b.b_slots with
  | Some slots -> slots
  | None ->
      let slots = Array.mapi (fun i insn -> P_insn (insn, b.b_sizes.(i))) b.b_insns in
      Atomic.set b.b_slots (Some slots);
      slots

(* Canonical digest: every observable field serialized in a fixed order,
   hashtables dumped sorted (their internal layout depends on insertion
   history, which byte-identical images are allowed to differ in). Two
   images are the same executable iff their fingerprints agree — the
   equality oracle of the incremental-rerandomization contract. *)
let fingerprint img =
  let code_list = force img.code_list in
  let b = Buffer.create (4096 + (64 * Array.length code_list)) in
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ';' in
  let str s = Buffer.add_string b s; Buffer.add_char b ';' in
  let sorted_of_tbl tbl f =
    let l = Hashtbl.fold (fun k v acc -> f k v :: acc) tbl [] in
    List.sort compare l
  in
  int img.text_base;
  int img.text_len;
  str (Marshal.to_string img.text_perm []);
  int img.data_base;
  int img.data_len;
  int img.entry;
  int img.stack_bytes;
  int img.heap_base;
  int (if img.shadow_stack then 1 else 0);
  Array.iter
    (fun (addr, insn, len) ->
      int addr;
      int len;
      str (Insn.to_string insn))
    code_list;
  let words = force img.data_words in
  for k = 0 to (Array.length words / 2) - 1 do
    int words.(2 * k);
    int words.((2 * k) + 1)
  done;
  Array.iter (fun (a, s) -> int a; str s) (force img.data_bytes);
  let syms = ref [] in
  iter_symbols img (fun s a -> syms := (s, a) :: !syms);
  List.iter (fun (s, a) -> str s; int a) (List.sort compare !syms);
  List.iter
    (fun f ->
      str f.fname;
      int f.entry;
      int f.code_len;
      int (if f.is_booby_trap then 1 else 0))
    (List.sort compare (Array.to_list img.funcs));
  List.iter
    (fun (a, n) -> int a; str n)
    (sorted_of_tbl img.builtin_addrs (fun k v -> (k, v)));
  Array.iter (fun (e, l, fs, pw) -> int e; int l; int fs; int pw) img.unwind_funcs;
  List.iter (fun (a, w) -> int a; int w) (sorted_of_tbl img.unwind_sites (fun k v -> (k, v)));
  List.iter int (sorted_of_tbl img.checked_sites (fun k () -> k));
  List.iter int (sorted_of_tbl (force img.code_ptr_slots) (fun k () -> k));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Predecoded text: one dense array slot per text byte, so tier 3's cold
   loop fetches with a single bounds-checked array read instead of a
   [builtin_addrs] probe followed by a [code] probe. Built from the placed
   bodies: their cached slots are stored at their offsets as-is, then only
   the relocations are resolved — against the placement's already-resolved
   external addresses and the body's own entry — so neither [code_list]
   nor a symbol-table probe is needed. An instruction owns the slot at its
   offset only when it has a nonzero length: a zero-length one is
   overwritten by its successor, as in [code_list]'s address table. Slots
   between instruction starts stay [P_none] — jumping into the middle of
   an instruction is an invalid opcode, exactly as [code_at] reports
   it. *)
let predecode img =
  let table = Array.make (max 1 img.text_len) P_none in
  Array.iter
    (fun c ->
      let b = c.c_body in
      let slots = body_slots b in
      let off = ref (c.c_entry - img.text_base) in
      Array.iteri
        (fun i slot ->
          let size = b.b_sizes.(i) in
          if size > 0 then table.(!off) <- slot;
          off := !off + size)
        slots;
      let entry = c.c_entry in
      Array.iter
        (fun r ->
          let j = ref 0 in
          let resolve _ o =
            let k = r.r_refs.(!j) in
            incr j;
            o + if k >= 0 then entry + k else c.c_ext.(-k - 1)
          in
          table.(entry - img.text_base + r.r_off) <-
            P_insn (Insn.map_syms resolve b.b_insns.(r.r_index), b.b_sizes.(r.r_index)))
        b.b_relocs)
    img.chunks;
  Hashtbl.iter
    (fun addr name -> table.(addr - img.text_base) <- P_builtin name)
    img.builtin_addrs;
  table

(* Built at most once per image and shared by every CPU that runs it. Two
   domains racing on a fresh image both build the same table; either
   result may win. *)
let predecoded img =
  match Atomic.get img.index with
  | Some table -> table
  | None ->
      let table = predecode img in
      Atomic.set img.index (Some table);
      table
