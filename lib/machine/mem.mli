(** Paged virtual memory with permissions.

    Provides the primitives the defense depends on: page-granular
    protection ([mprotect]-style {!protect}), guard-page tagging so that a
    BTDP dereference is distinguishable from an ordinary crash in reports,
    and resident-set accounting for the memory-overhead experiment
    (Section 6.2.5).

    Checked accesses are served through a small direct-mapped software TLB
    caching each hot page's bytes and decoded permission bits; [map],
    [unmap], {!protect} and {!tag_guard} all invalidate it, so an in-place
    permission change is visible on the very next access.

    All checked accessors raise {!Fault.Fault}. The [peek]/[poke] variants
    ignore permissions — they model the defender/experimenter's view (e.g.
    loaders and ground-truth checks in tests), never the attacker's.

    Pages are copy-on-write. A page's bytes may be shared: every page
    {!map} creates shares one global zero page, and {!clone} shares every
    page between the original and the clone. A shared page gets bytes of
    its own on its first write — a checked write (which takes the TLB's
    slow path: shared pages are cached as not writable, so the hot
    accessors keep their single permission test), {!poke_u64} or
    {!flip_bit} — and no write through one memory is ever visible through
    another. Sharing changes only host memory: contents, permissions,
    faults and {!max_mapped_pages} are those of private pages. *)

type t

val create : unit -> t

(** [map t addr len perm] maps the pages covering [\[addr, addr+len)],
    zero-filled: each shares the zero page until its first write.
    Remapping an already-mapped page is an error. *)
val map : t -> int -> int -> Perm.t -> unit

(** [clone t] — an independent memory with [t]'s pages, permissions,
    guard tags and high-water mark, sharing every page's bytes with [t]
    until either side writes it. O(pages), copies no page bytes. *)
val clone : t -> t

(** [protect t addr len perm] changes permissions of covered (mapped)
    pages. *)
val protect : t -> int -> int -> Perm.t -> unit

(** [tag_guard t addr len] marks covered pages as BTDP guard pages:
    permission faults on them raise {!Fault.constructor-Guard_page}. *)
val tag_guard : t -> int -> int -> unit


(** [check_exec t addr] — the interpreter's per-fetch probe: returns [()]
    when the page holding [addr] is mapped executable, raises
    [Fault.Segv { access = Exec }] otherwise (never [Guard_page], matching
    the historical per-page permission check). Served from the software TLB. *)
val check_exec : t -> int -> unit

(** Checked accessors (raise {!Fault.Fault} on violation). Multi-byte
    accesses may cross page boundaries. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u64 : t -> int -> int
val write_u64 : t -> int -> int -> unit
val write_bytes : t -> int -> bytes -> unit

(** [blit_string t addr s] — checked write of [s] at [addr], one
    permission probe and one copy per page touched. Faults exactly as a
    {!write_u8} per byte would: at the first byte of the first page that
    is unmapped or not writable, with every earlier byte written. *)
val blit_string : t -> int -> string -> unit

(** Permission-free accessors for the simulator/defender side. [peek_u64]
    returns [None] when unmapped. *)

val peek_u64 : t -> int -> int option
val peek_u8 : t -> int -> int option
val poke_u64 : t -> int -> int -> unit

(** [writable_page_addrs t] — base addresses of writable mapped pages
    (heap, stack, data), sorted; the chaos injector's bit-flip target
    population. *)
val writable_page_addrs : t -> int list

(** [flip_bit t ~addr ~bit] — permission-free xor of bit [bit land 7] of
    the byte at [addr]; the {!Inject} bit-flip primitive. *)
val flip_bit : t -> addr:int -> bit:int -> unit

(** [page_perms t] — [(base, perm, guard)] for every mapped page, sorted by
    base address; the static auditor's page-table walk. *)
val page_perms : t -> (int * Perm.t * bool) list

(** [guard_page_addrs t] — base addresses of pages tagged as guards;
    defender-side ground truth for tests and reports. *)
val guard_page_addrs : t -> int list

(** [max_mapped_pages t] — the most pages ever mapped at once (maxrss
    analogue). *)
val max_mapped_pages : t -> int
