(** Virtual address space layout.

    Region bases mirror a Linux x86-64 process so that the value-range
    clustering at the heart of AOCR's pointer analysis (Section 2.3) behaves
    as in the paper: text low, data and heap in the 0x5555... range, stack
    just below 0x7fffffffe000. Loader-applied ASLR slides stay inside each
    region's window, so {!region_of} remains a sound ground-truth classifier
    for tests and attack verification. *)

type t = int

val page_size : int
val page_shift : int

(** [page_of a] — index of the page containing [a]. *)
val page_of : t -> int

(** [page_base a] — address of the first byte of [a]'s page. *)
val page_base : t -> t

(** [page_offset a] — offset of [a] within its page. *)
val page_offset : t -> int

(** [align_up a ~align] rounds [a] up to a multiple of [align] (a power of
    two). *)
val align_up : t -> align:int -> t

val text_base : t
val text_limit : t
val data_base : t
val data_limit : t
val heap_base : t
val heap_limit : t
val stack_top : t

type region = Text | Data | Heap | Stack | Unmapped_region

val region_of : t -> region
