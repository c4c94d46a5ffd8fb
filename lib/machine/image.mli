(** A linked executable image.

    The linker produces one of these; the loader maps it; the CPU fetches
    decoded instructions through {!predecoded} (tier 3) or [code]
    (reference tier). Text bytes are also materialised into memory, a
    page on its first observation ({!text_page}), with a
    deterministic pseudo-encoding so that read attacks against
    non-execute-only text observe real bytes, while [code_at] is the
    (defender/CPU-side) decoder.

    What is derived from a body's bytes is built once per {!body} and
    shared by every image that places it: its pseudo-encoded text, the
    index of its instruction starts ({!view.v_starts}) and, in [Jit], its
    compile plans
    ({!body_code}). A placement adds only O(functions) state — the
    entry-to-chunk map of its {!decoder} — and its relocations resolved
    against the entry and externals it was placed at.

    [func_table] is defender-side metadata (symbols stay out of the
    process's memory, as with a stripped binary plus external debug info);
    attacks may only use it through the oracles that model their actual
    capabilities. *)

type func_info = {
  fname : string;
  entry : int;
  code_len : int;  (** bytes *)
  is_booby_trap : bool;
}

(** Extended by [Jit] with its per-body compile plans; the machine layer
    below it only stores them. *)
type body_code = ..

(** One relocation of a body: instruction [r_index], at byte offset
    [r_off], and each of its symbol references in {!Insn.map_syms}
    visiting order — [k >= 0] is the body-relative offset of one of the
    body's own symbols, [k < 0] is external symbol [b_ext.(-k-1)]. *)
type reloc = {
  r_index : int;
  r_off : int;
  r_refs : int array;
}

(** One emitted body's layout-independent text: its pseudo-encoded bytes,
    its instructions as emitted, and the relocations that placing it at
    an entry address resolves. Everything else is copied as-is. *)
type body = {
  b_text : string;  (** pseudo-encoded bytes, [encode_byte] per instruction *)
  b_insns : Insn.t array;  (** as emitted, unresolved *)
  b_sizes : int array;  (** emission-time lengths *)
  b_relocs : reloc array;  (** ascending *)
  b_ext : string array;  (** distinct external symbols the relocations reference *)
  b_starts : Bytes.t option Atomic.t;
      (** memo cell of the index of the body's instruction starts
          ({!view.v_starts}), built by the first fetch from any image that
          places the body; a body copied with other instructions needs a
          fresh cell *)
  b_code : body_code list Atomic.t;
      (** the tier-3 compile plans of this body, at most one per cost
          profile, shared by every image that places it; a body copied
          with other instructions needs a fresh cell *)
}

(** One placed body: its entry address and the addresses of its external
    symbols ([c_ext.(k)] for [b_ext.(k)]), resolved by the linker. *)
type chunk = {
  c_entry : int;
  c_body : body;
  c_ext : int array;
}

(** Code caches the tier-3 JIT publishes on an image ({!t.jit}). Extended
    by [Jit]; the machine layer below it only stores them. *)
type jit_cache = ..

(** One placed chunk as the fetch sees it ({!view}): its index in
    [chunks], entry and text length, its body's shared index of
    instruction starts, instructions, sizes and relocations, and [v_fix],
    its relocations resolved at this placement ({!fixed}), each
    {!unfixed} until its first fetch. *)
type view = {
  v_ci : int;
  v_entry : int;
  v_len : int;
  v_starts : Bytes.t;
      (** which instruction starts at each byte offset of the body, as a
          native-endian int32 at [4 * offset]: [i + 1] where instruction
          [i] of [v_insns] starts and has no relocation, [-(k + 1)] where
          the one with relocation [k] of [v_relocs] starts, 0 elsewhere
          (and where a zero-length instruction sits before its
          successor) *)
  v_insns : Insn.t array;
  v_sizes : int array;
  v_relocs : reloc array;
  v_fix : Insn.t array;
}

(** The fetch side of one placement, O(functions): which chunk covers an
    address ({!locate}), and each chunk's {!view}, built on its first
    fetch. The decoded instructions themselves are the bodies', indexed by
    their shared starts. *)
type decoder = {
  d_chunks : chunk array;  (** the image's [chunks] *)
  d_base : int;  (** text base *)
  d_len : int;  (** text length *)
  d_entries : int array;  (** chunk [i]'s entry, ascending *)
  d_ends : int array;  (** chunk [i]'s end (entry + text length) *)
  d_buckets : int array;
      (** per 256 bytes of text: the last chunk entered at or before the
          bucket's start, or 0 *)
  d_views : view array;  (** chunk [i]'s {!view}, once built, else {!no_view} *)
}

type t = {
  code : (int, Insn.t * int) Hashtbl.t Lazy.t;
      (** address -> decoded instruction and its layout-assigned byte
          length (the length is fixed at layout time, before symbol
          resolution, and drives the CPU's rip advance). Derived from
          [code_list] on first use: the reference dispatch and the
          defender-side tools probe it; tier 3 fetches through
          {!predecoded} instead. *)
  code_list : (int * Insn.t * int) array Lazy.t;
      (** ascending address order. Materialized on first use: the linker
          records layout and relocation decisions eagerly (cheap, per
          function) and fills the per-instruction table on demand. The
          load path never forces it; fingerprints, audits and the
          reference tier do. *)
  chunks : chunk array;
      (** the placed text, ascending by address: [_start], then every
          function. Bytes outside the chunks (the builtin PLT region,
          function padding) are zero. *)
  index : decoder option Atomic.t;
      (** memo cell of {!predecoded}. An image copied with a changed
          [chunks] must get a fresh cell ([Atomic.make None]). *)
  jit : jit_cache list Atomic.t;
      (** the tier-3 code state of this image, at most one per cost
          profile, each published once by the first run that needs it and
          shared by every process of the image afterwards; the compiled
          code itself is instantiated from plans kept on the bodies. An
          image copied with a changed [chunks] must get a fresh cell
          ([Atomic.make \[\]]). *)
  text_base : int;
  text_len : int;
  text_perm : Perm.t;
  data_base : int;
  data_len : int;
  data_words : int array Lazy.t;
      (** initialised 64-bit words, flattened: address at [2k], value at
          [2k+1]. Materialized on first use together with [data_bytes],
          in one pass sized up front — initialiser volume is proportional
          to program size (BTRA decoy arrays), so the relink defers it;
          undefined symbolic initialisers are still an eager link
          error. Loading does not force it; the first {!data_page}
          does. *)
  data_bytes : (int * string) array Lazy.t;  (** initialised byte runs *)
  text_pages : Bytes.t option Atomic.t array;
      (** memo cells of {!text_page}, one per page of the text. An image
          copied with a changed [chunks] must get fresh cells
          ({!text_cells}). *)
  data_pages : Bytes.t option array option Atomic.t;
      (** memo cell of {!data_page}: every page of the data, [None] where
          no initialiser writes. An image copied with a changed
          [data_len], [data_words] or [data_bytes] must get a fresh cell
          ([Atomic.make None]). *)
  sym_ids : (string, int) Hashtbl.t;
      (** symbol name -> dense id, interned once by the link plan and
          shared by every image placed from it *)
  sym_addrs : int array;  (** this image's address of each symbol id *)
  funcs : func_info array;
      (** placement order, which is ascending by entry address: the
          tier-3 hot-function counters and {!func_of_addr}
          binary-search it *)
  entry : int;  (** _start *)
  builtin_addrs : (int, string) Hashtbl.t;  (** intercepted library entries *)
  stack_bytes : int;
  heap_base : int;
  unwind_funcs : (int * int * int * int) array;
      (** (entry, code length, frame size, post-offset words) per compiled
          function, ascending by entry — the CIE-like rows of the
          Section 7.2.4 unwind tables *)
  unwind_sites : (int, int) Hashtbl.t;
      (** return address -> words between the RA slot and the caller frame
          base (BTRA pre-offset + stack arguments) — the FDE-like rows *)
  checked_sites : (int, unit) Hashtbl.t;
      (** return addresses whose call site the compiler instrumented with a
          Section 7.3 post-return booby-trap check; the static auditor
          verifies the check bytes are actually present at each *)
  code_ptr_slots : (int, unit) Hashtbl.t Lazy.t;
      (** data addresses whose initialiser legitimately holds a text
          address (function-pointer tables, BTRA decoy arrays) — every
          other readable word resolving into text is a leak. Derived on
          demand for the auditor; loading never forces it. *)
  shadow_stack : bool;  (** run under backward-edge CFI (Section 8.2) *)
}

(** Intercepted library functions ("unprotected code" in the paper's
    terms — the glibc analogue). *)
val builtin_names : string list

(** [force field] — one of an image's lazy fields: safe while several
    domains load or run the image at once, where a bare [Lazy.force]
    raises [Lazy.Undefined] in a domain that finds another one forcing
    it. Such a domain waits for the value instead. *)
val force : 'a Lazy.t -> 'a

(** [text_cells ~text_base ~text_len] — empty {!t.text_pages} cells. *)
val text_cells : text_base:int -> text_len:int -> Bytes.t option Atomic.t array

(** [text_page img index] — text page [index] ({!Addr.page_of}) as
    loaded: the bytes of every chunk that overlaps it, zero elsewhere;
    [None] (zero) outside the text. Built on first use, then shared by
    every process of [img]; never written. *)
val text_page : t -> int -> Bytes.t option

(** [data_page img index] — data page [index] as loaded: [data_words],
    then [data_bytes], written in order; [None] (zero) where no
    initialiser writes. The first call builds every initialised page in
    one pass, then shared by every process of [img]; never written. *)
val data_page : t -> int -> Bytes.t option

(** [code_at img addr] — decoded instruction and byte length at [addr]. *)
val code_at : t -> int -> (Insn.t * int) option

(** [symbol img name] — address of a symbol; raises [Not_found]. *)
val symbol : t -> string -> int

(** [find_symbol img name] — {!symbol}, or [None] when undefined. *)
val find_symbol : t -> string -> int option

(** [iter_symbols img f] — [f name addr] for every defined symbol, in
    no particular order. *)
val iter_symbols : t -> (string -> int -> unit) -> unit

(** [func_of_addr img addr] — the function whose body covers [addr]; a
    binary search over [funcs]. *)
val func_of_addr : t -> int -> func_info option

(** [encode_byte insn k] — [k]-th byte of the pseudo-encoding of [insn]. *)
val encode_byte : Insn.t -> int -> int

(** [body ~locals insns sizes] — the layout-independent text of one
    emitted body: bytes and relocations. [sizes] are the
    emission-time lengths; [locals] are the symbols the body itself
    defines, as offsets from its entry (its own name at 0, its local
    labels). *)
val body : locals:(string * int) list -> Insn.t array -> int array -> body

(** [fingerprint img] — canonical content digest: every observable field
    in a fixed order, hashtables dumped sorted. Equal fingerprints mean
    byte-identical executables; this is the equality oracle the
    incremental-rerandomization pipeline is gated on. *)
val fingerprint : t -> string

(** [resolve c r] — relocation [r] of [c]'s body resolved against the
    entry and externals of placement [c]. *)
val resolve : chunk -> reloc -> Insn.t

(** [predecode img] — a fresh {!decoder} of [img], O(functions) to build:
    the bodies' starts and the chunks' views are built on first fetch,
    and a rotated image finds its bodies' starts already built. Builtin
    stubs must lie outside every chunk (the linker places them below
    [_start]); raises [Invalid_argument] otherwise. *)
val predecode : t -> decoder

(** [predecoded img] — {!predecode}, built on first use and then shared by
    every CPU, respawn and JIT that runs [img]. *)
val predecoded : t -> decoder

(** [locate d addr] — the index of the chunk whose text covers [addr], or
    [-1]. *)
val locate : decoder -> int -> int

(** [view d i] — chunk [i]'s {!view}, built on first use. *)
val view : decoder -> int -> view

(** The view of no chunk: it covers no address. *)
val no_view : view

(** A [v_fix] entry not resolved yet (compared physically). *)
val unfixed : Insn.t

(** [fixed d v k] — relocation [k] of [v]'s chunk resolved, resolving and
    memoizing it in [v.v_fix] on first use. *)
val fixed : decoder -> view -> int -> Insn.t

(** [insn_index v off] — the index in [v.v_insns] of the instruction
    that starts at byte offset [off] of [v]'s chunk, or [-1] where none
    does; [0 <= off < v.v_len]. One slot per body instruction: what
    per-instruction tables are indexed by. *)
val insn_index : view -> int -> int
