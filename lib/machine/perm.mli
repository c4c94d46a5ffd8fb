(** Page permissions.

    The threat model (Section 3) assumes W^X for data and execute-only
    memory (XOM) for text; booby-trapped data pointers additionally rely on
    pages with *no* read permission (guard pages, Section 5.2). *)

type t = { read : bool; write : bool; exec : bool }

val none : t
val rw : t
val rx : t

(** Execute-only: fetchable but neither readable nor writable — the
    leakage-resilience prerequisite of Section 4. *)
val xo : t

val to_string : t -> string
