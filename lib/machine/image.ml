type func_info = {
  fname : string;
  entry : int;
  code_len : int;
  is_booby_trap : bool;
}

type body_code = ..

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
  b_starts : Bytes.t option Atomic.t;
  b_code : body_code list Atomic.t;
}

type chunk = {
  c_entry : int;
  c_body : body;
  c_ext : int array;
}

type jit_cache = ..

type view = {
  v_ci : int;
  v_entry : int;
  v_len : int;
  v_starts : Bytes.t;
  v_insns : Insn.t array;
  v_sizes : int array;
  v_relocs : reloc array;
  v_fix : Insn.t array;
}

type decoder = {
  d_chunks : chunk array;
  d_base : int;
  d_len : int;
  d_entries : int array;
  d_ends : int array;
  d_buckets : int array;
  d_views : view array;
}

type t = {
  code : (int, Insn.t * int) Hashtbl.t Lazy.t;
  code_list : (int * Insn.t * int) array Lazy.t;
  chunks : chunk array;
  index : decoder option Atomic.t;
  jit : jit_cache list Atomic.t;
  text_base : int;
  text_len : int;
  text_perm : Perm.t;
  data_base : int;
  data_len : int;
  data_words : int array Lazy.t;
  data_bytes : (int * string) array Lazy.t;
  text_pages : Bytes.t option Atomic.t array;
  data_pages : Bytes.t option array option Atomic.t;
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
    b_starts = Atomic.make None;
    b_code = Atomic.make [];
  }

(* Which instruction of a body starts at each byte offset, for the cold
   loop's fetch: 4 bytes per text byte, built on the first fetch from any
   image the body is placed in and shared by every later one, so the
   templates of a rotating program are indexed once, not once per
   rotation. An instruction owns the offset it starts at only when it has
   a nonzero length: a zero-length one is overwritten by its successor,
   as in [code_list]'s address table. An instruction with a relocation is
   named by its relocation, whose resolved form is the placement's
   ([fixed]). Deferred rather than computed with the bytes because
   images that are never run fast — cold references, audits — would only
   pay its memory; an atomic cell rather than a [Lazy] because bodies are
   shared across domains, where two domains racing to build it just
   produce equal tables. *)
let body_starts b =
  match Atomic.get b.b_starts with
  | Some starts -> starts
  | None ->
      let starts = Bytes.make (4 * String.length b.b_text) '\000' in
      let off = ref 0 and k = ref 0 in
      Array.iteri
        (fun i _ ->
          let size = b.b_sizes.(i) in
          let reloc = !k < Array.length b.b_relocs && b.b_relocs.(!k).r_index = i in
          if size > 0 then
            Bytes.set_int32_ne starts (4 * !off) (Int32.of_int (if reloc then -(!k + 1) else i + 1));
          if reloc then incr k;
          off := !off + size)
        b.b_insns;
      Atomic.set b.b_starts (Some starts);
      starts

(* A relocation resolved against one placement: each symbol reference in
   [Insn.map_syms] order is the body's own entry plus an offset, or one of
   the placement's already-resolved external addresses. *)
let resolve c r =
  let insn = c.c_body.b_insns.(r.r_index) in
  let target k = if k >= 0 then c.c_entry + k else c.c_ext.(-k - 1) in
  if Array.length r.r_refs = 1 then begin
    (* the common case, without the visiting counter *)
    let v = target r.r_refs.(0) in
    Insn.map_syms (fun _ o -> o + v) insn
  end
  else begin
    let j = ref 0 in
    Insn.map_syms
      (fun _ o ->
        let k = r.r_refs.(!j) in
        incr j;
        o + target k)
      insn
  end

(* The loaded text and data, built page by page on first observation
   (Mem.map_from) and kept for every process of the image. Two domains
   racing on a cell build equal bytes; either may win. *)
let text_cells ~text_base ~text_len =
  Array.init
    (Addr.page_of (text_base + max 1 text_len - 1) - Addr.page_of text_base + 1)
    (fun _ -> Atomic.make None)

(* Chunks are ascending and disjoint, so the first to overlap a page is
   the first to end past its base. *)
let text_page img index =
  let k = index - Addr.page_of img.text_base in
  if k < 0 || k >= Array.length img.text_pages then None
  else
    match Atomic.get img.text_pages.(k) with
    | Some _ as page -> page
    | None ->
        let base = index lsl Addr.page_shift and cs = img.chunks in
        let top = base + Addr.page_size and page = Bytes.make Addr.page_size '\000' in
        let ends i = cs.(i).c_entry + String.length cs.(i).c_body.b_text in
        let lo = ref 0 and hi = ref (Array.length cs) in
        while !lo < !hi do
          let mid = (!lo + !hi) lsr 1 in
          if ends mid <= base then lo := mid + 1 else hi := mid
        done;
        let i = ref !lo in
        while !i < Array.length cs && cs.(!i).c_entry < top do
          let c = cs.(!i) and a = max base cs.(!i).c_entry in
          Bytes.blit_string c.c_body.b_text (a - c.c_entry) page (a - base) (min top (ends !i) - a);
          incr i
        done;
        Atomic.set img.text_pages.(k) (Some page);
        Some page

(* Every initialised page in one pass: the words, then the byte runs, in
   initialiser order, a page-straddling word byte by byte as [Mem]'s
   checked writer stores it. *)
let data_page img index =
  let first = Addr.page_of img.data_base in
  let pages =
    match Atomic.get img.data_pages with
    | Some pages -> pages
    | None ->
        let pages = Array.make (Addr.page_of (img.data_base + max 1 img.data_len - 1) - first + 1) None in
        let page_at a =
          let k = Addr.page_of a - first in
          match pages.(k) with
          | Some b -> b
          | None ->
              let b = Bytes.make Addr.page_size '\000' in
              pages.(k) <- Some b;
              b
        in
        let put a c = Bytes.unsafe_set (page_at a) (Addr.page_offset a) c in
        let words = force img.data_words in
        for k = 0 to (Array.length words / 2) - 1 do
          let a = words.(2 * k) and v = words.((2 * k) + 1) in
          if Addr.page_offset a <= Addr.page_size - 8 then
            Bytes.set_int64_le (page_at a) (Addr.page_offset a) (Int64.of_int v)
          else
            for i = 0 to 7 do
              put (a + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
            done
        done;
        Array.iter (fun (a, s) -> String.iteri (fun i c -> put (a + i) c) s) (force img.data_bytes);
        Atomic.set img.data_pages (Some pages);
        pages
  in
  let k = index - first in
  if k < 0 || k >= Array.length pages then None else pages.(k)

(* Canonical digest: every observable field in a fixed order, each as an
   injective binary encoding (ints as 8 bytes, strings length-prefixed,
   instructions by [Insn.add_binary]), hashtables dumped sorted (their
   internal layout depends on insertion history, which byte-identical
   images are allowed to differ in). The encoding streams through one
   fixed-size buffer: each time it fills, its digest is chained into the
   running one. Two images are the same executable iff their fingerprints
   agree — the equality oracle of the incremental-rerandomization
   contract. *)
let fingerprint img =
  let chunk = 1 lsl 16 in
  let b = Buffer.create (chunk + 256) in
  let h = ref "" in
  let flush () =
    h := Digest.string (!h ^ Digest.string (Buffer.contents b));
    Buffer.clear b
  in
  let int i =
    Buffer.add_int64_le b (Int64.of_int i);
    if Buffer.length b >= chunk then flush ()
  in
  let str s = int (String.length s); Buffer.add_string b s in
  (* Each row of a table, sorted by key then value, behind the row
     count. *)
  let table tbl cmp row =
    let l = List.sort cmp (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
    int (List.length l);
    List.iter row l
  in
  let by_int (a, _) (b, _) = Int.compare a b in
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
      Insn.add_binary b insn;
      int addr;
      int len)
    (force img.code_list);
  let words = force img.data_words in
  int (Array.length words);
  Array.iter int words;
  let data_bytes = force img.data_bytes in
  int (Array.length data_bytes);
  Array.iter (fun (a, s) -> int a; str s) data_bytes;
  (* Symbol names and function names are unique: their order is the
     names'. *)
  table img.sym_ids
    (fun (a, _) (b, _) -> String.compare a b)
    (fun (s, id) -> str s; int img.sym_addrs.(id));
  let funcs = Array.copy img.funcs in
  Array.stable_sort (fun a b -> String.compare a.fname b.fname) funcs;
  int (Array.length funcs);
  Array.iter
    (fun f ->
      str f.fname;
      int f.entry;
      int f.code_len;
      int (if f.is_booby_trap then 1 else 0))
    funcs;
  table img.builtin_addrs by_int (fun (a, n) -> int a; str n);
  int (Array.length img.unwind_funcs);
  Array.iter (fun (e, l, fs, pw) -> int e; int l; int fs; int pw) img.unwind_funcs;
  table img.unwind_sites by_int (fun (a, w) -> int a; int w);
  table img.checked_sites by_int (fun (a, ()) -> int a);
  table (force img.code_ptr_slots) by_int (fun (a, ()) -> int a);
  flush ();
  Digest.to_hex !h

(* The fetch side of a placement. Nothing in it is text-sized: the
   decoded instructions are the bodies' shared slots, and what the
   placement adds is which chunk covers an address — a bucket per 256
   bytes of text names the last chunk entered at or before the
   bucket, and a short forward scan finds the one that covers — and each
   chunk's relocations, resolved on their first fetch. *)
let bucket_shift = 8

(* Covers no address: the fetch starts from it, and it stands for a
   chunk whose view is not built yet. *)
let no_view =
  {
    v_ci = -1;
    v_entry = 0;
    v_len = 0;
    v_starts = Bytes.empty;
    v_insns = [||];
    v_sizes = [||];
    v_relocs = [||];
    v_fix = [||];
  }

let locate d addr =
  let o = addr - d.d_base in
  if o < 0 || o >= d.d_len then -1
  else begin
    let es = d.d_entries in
    let n = Array.length es in
    let i = ref (Array.unsafe_get d.d_buckets (o lsr bucket_shift)) in
    while !i + 1 < n && Array.unsafe_get es (!i + 1) <= addr do
      incr i
    done;
    let i = !i in
    if i < n && Array.unsafe_get es i <= addr && addr < Array.unsafe_get d.d_ends i then i else -1
  end

let predecode img =
  let cs = img.chunks in
  let n = Array.length cs in
  let d_entries = Array.map (fun c -> c.c_entry) cs in
  let d_ends = Array.map (fun c -> c.c_entry + String.length c.c_body.b_text) cs in
  let d_buckets = Array.make (((max 1 img.text_len - 1) lsr bucket_shift) + 1) 0 in
  let i = ref 0 in
  Array.iteri
    (fun b _ ->
      let start = img.text_base + (b lsl bucket_shift) in
      while !i + 1 < n && d_entries.(!i + 1) <= start do
        incr i
      done;
      d_buckets.(b) <- !i)
    d_buckets;
  let d =
    {
      d_chunks = cs;
      d_base = img.text_base;
      d_len = img.text_len;
      d_entries;
      d_ends;
      d_buckets;
      d_views = Array.make n no_view;
    }
  in
  Hashtbl.iter
    (fun addr name ->
      if locate d addr >= 0 then invalid_arg ("Image.predecode: builtin " ^ name ^ " inside a body"))
    img.builtin_addrs;
  d

(* Stands for a relocation not resolved yet. *)
let unfixed = Insn.Nop (-1)

(* Built on the first fetch from the chunk, each relocation resolved on
   its own first fetch: a run resolves only the relocations it executes.
   Two domains racing on a chunk or a relocation both build equal values;
   either may win. *)
let view d i =
  let v = Array.unsafe_get d.d_views i in
  if v != no_view then v
  else begin
    let c = d.d_chunks.(i) in
    let b = c.c_body in
    let v =
      {
        v_ci = i;
        v_entry = c.c_entry;
        v_len = String.length b.b_text;
        v_starts = body_starts b;
        v_insns = b.b_insns;
        v_sizes = b.b_sizes;
        v_relocs = b.b_relocs;
        v_fix = Array.make (Array.length b.b_relocs) unfixed;
      }
    in
    d.d_views.(i) <- v;
    v
  end

let fixed d v k =
  let insn = Array.unsafe_get v.v_fix k in
  if insn != unfixed then insn
  else begin
    let insn = resolve d.d_chunks.(v.v_ci) v.v_relocs.(k) in
    v.v_fix.(k) <- insn;
    insn
  end

(* Built at most once per image and shared by every CPU that runs it. Two
   domains racing on a fresh image both build equal decoders; either
   result may win. *)
let predecoded img =
  match Atomic.get img.index with
  | Some d -> d
  | None ->
      let d = predecode img in
      Atomic.set img.index (Some d);
      d

let insn_index v off =
  match Int32.to_int (Bytes.get_int32_ne v.v_starts (4 * off)) with
  | 0 -> -1
  | e when e > 0 -> e - 1
  | e -> (Array.unsafe_get v.v_relocs (-e - 1)).r_index
