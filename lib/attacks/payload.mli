(** Exploit payload construction. *)

(** [le64 v] — 8 little-endian bytes. *)
val le64 : int -> string

(** [le16 v] — 2 little-endian bytes (partial-overwrite payloads). *)
val le16 : int -> string

(** [slice ~base ~values ~from_off ~upto_off] — the raw bytes of a leaked
    stack window between the two byte offsets (relative to [base], the
    leak's start). Used to rebuild benign filler so an overflow only
    changes the words the attacker targets. *)
val slice : values:int array -> from_off:int -> upto_off:int -> string

(** [fill n] — [n] filler bytes (0x41). *)
val fill : int -> string

(** [plt_addr_of ?base name] — the PLT stub of builtin [name]: libc's entry
    order is public, so it sits at a known offset from the PLT's [base]
    (default: the text base, where a non-PIE image puts its PLT). *)
val plt_addr_of : ?base:int -> string -> int
