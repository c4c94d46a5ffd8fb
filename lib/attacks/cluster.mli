(** AOCR's statistical pointer analysis (Sections 2.3 and 4.2).

    "Due to the large address space of x64 systems, the values of pointers
    occur in clusters, with heap pointers typically constituting the third
    largest cluster."

    Given a window of leaked stack words, {!analyze} groups plausible
    pointer values by numeric proximity and labels each cluster using only
    public knowledge of the x86-64 user-space layout: the lowest cluster is
    code (non-PIE text or a PIE module), the 0x5555... range splits into
    data-then-heap, and the 0x7ff... range is stack. No victim-specific
    ground truth is consulted — this is the attacker's own inference, and
    BTDPs are expressly designed to contaminate its heap cluster. *)

type label = Code | Static_data | Heap_like | Stack_like | Unknown

type cluster = {
  label : label;
  lo : int;
  hi : int;
  members : int list;  (** ascending *)
}

(** [analyze ?gap values] — labelled clusters, largest first. Non-pointer
    values (small integers) are discarded. Default gap 16 MiB. *)
val analyze : ?gap:int -> int list -> cluster list

(** [heap_candidates clusters] — members of every heap-labelled cluster,
    the pick-and-dereference population of AOCR step B. *)
val heap_candidates : cluster list -> int list

(** [code_candidates clusters] — members of code-labelled clusters (the
    JIT-ROP seeds). *)
val code_candidates : cluster list -> int list
