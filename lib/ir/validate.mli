(** IR well-formedness checking.

    Run before compilation and by tests on every generated workload: a
    validated program compiles without compiler-side assertions firing. *)

type error

val error_to_string : error -> string

(** [check p] — all violations found (empty = well-formed). Checks: entry
    block first and labelled consistently, block labels unique, every
    block reachable from the entry, terminator targets exist, vars and
    slots in range, direct callees and globals resolve, builtin names are
    known, [main] exists and takes no parameters, symbol names unique, and
    no var read before initialization ({!uninit_reads}). *)
val check : Ir.program -> error list

(** [uninit_reads f] — reads that some path from the entry reaches with no
    prior definition of the (non-parameter) var: [(var, block index,
    instruction index)], where blocks are indexed by position in
    [f.blocks] and the instruction index equals [List.length body] for a
    terminator read. {!Dataflow.Uninit} solved to its fixpoint;
    deterministic order (block, instruction, operand); empty on
    initialization-clean functions, on functions with no blocks and on
    functions whose labels are not unique. *)
val uninit_reads : Ir.func -> (Ir.var * int * int) list
