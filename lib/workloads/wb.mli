(** A tiny deterministic in-IR PRNG on top of {!Builder}, shared by the
    SPEC-like benchmark kernels (the counted loop and conditional they
    build with are {!Builder.for_} and {!Builder.if_}). *)

(** [lcg fb state_global] — advance the linear congruential generator
    stored in the named global and return the new value (non-negative). *)
val lcg : Builder.t -> string -> Ir.operand

(** [lcg_global name] — the global backing an in-IR PRNG stream. *)
val lcg_global : string -> Ir.global
