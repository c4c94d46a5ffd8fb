(** Simulated libc heap allocator.

    A first-fit free-list allocator over the heap region, growing by mapping
    pages on demand. It exists because the BTDP constructor (Section 5.2)
    needs the exact glibc-like behaviours the paper relies on: page-aligned
    page-sized allocations whose pages can be individually [mprotect]ed, and
    the guarantee that an allocation which is never freed keeps its page out
    of reuse by later allocations. *)

type t

(** [create mem ~base] — allocator serving from [base] upward. *)
val create : Mem.t -> base:int -> t

(** [clone t ~mem] — an allocator in [t]'s state (top, free list, live
    blocks) serving from [mem], a {!Mem.clone} of [t]'s memory. *)
val clone : t -> mem:Mem.t -> t

(** [malloc t size] returns a 16-byte-aligned block. Raises [Out_of_memory]
    if the heap region is exhausted. *)
val malloc : t -> int -> int

(** [malloc_pages t n] returns a page-aligned block of [n] whole pages —
    the guard-page chunks of the BTDP constructor. *)
val malloc_pages : t -> int -> int

(** [free t addr] releases a block previously returned by an allocation
    function. Freeing an unknown address is an error. *)
val free : t -> int -> unit

(** [live_bytes t] — total bytes in live blocks (diagnostics). *)
val live_bytes : t -> int

(** [brk t] — current top of the heap. *)
val brk : t -> int
