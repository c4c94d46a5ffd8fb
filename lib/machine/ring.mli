(** Execution tracing: a bounded ring of executed-instruction records, for
    debugging diversified binaries and for post-mortem views of attack
    runs (what did the victim execute right before the booby trap?). *)

type t

(** [create ~capacity] — keeps the last [capacity] records. *)
val create : capacity:int -> t

(** [copy t] — an independent ring holding the same records. *)
val copy : t -> t

(** [attach ?tee t cpu] — record via the {!Cpu.observer} hook: every
    instruction retired through any runner ({!Cpu.run} on any tier,
    {!Process.run}, the pool) lands in the ring, including the faulting
    instruction of a crash. The instruction and symbol are resolved once
    per address; [rsp] is read after the instruction ran. By default any previously attached observer is replaced
    (the pool wants exactly one fresh ring per child); with [~tee:true]
    the previous observer keeps firing first on every step, so the ring
    can coexist with a profiler ({!Cpu.attach_observer}). *)
val attach : ?tee:bool -> t -> Cpu.t -> unit

(** [pp_tail t ~n] — the last [n] records, oldest first, one per line:
    address, instruction, [rsp] after the instruction ran, and [; name]
    of the function covering the address when it is compiled code. *)
val pp_tail : t -> n:int -> string
