(** Workload-building helpers on top of {!Builder}: memory-backed counted
    loops and a tiny deterministic in-IR PRNG, shared by the SPEC-like
    benchmark kernels. *)

(** [for_ fb ~from ~below body] — a counted loop; [body] receives the
    counter operand. The counter lives in a stack slot, so arbitrarily
    complex bodies (including calls) are safe. *)
val for_ : Builder.t -> from:Ir.operand -> below:Ir.operand -> (Ir.operand -> unit) -> unit

(** [if_ fb c then_ else_] — two-armed conditional statement. *)
val if_ : Builder.t -> Ir.operand -> (unit -> unit) -> (unit -> unit) -> unit

(** [lcg fb state_global] — advance the linear congruential generator
    stored in the named global and return the new value (non-negative). *)
val lcg : Builder.t -> string -> Ir.operand

(** [lcg_global name] — the global backing an in-IR PRNG stream. *)
val lcg_global : string -> Ir.global
