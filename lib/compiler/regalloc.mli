(** Linear-scan register allocation over IR virtual registers.

    Allocatable registers are callee-saved only, so values survive calls
    without caller-side spills; everything else lives in frame slots. The
    pool's order comes from {!Opts.t.reg_pool} — register-allocation
    randomization (Section 4.3) is a permuted pool. Block live-in/out
    sets come from {!Dataflow.Liveness}; this module only turns them into
    intervals over instruction positions. *)

type assignment =
  | In_reg of R2c_machine.Insn.reg
  | Spilled of int  (** index into the function's spill-slot array *)

type result = {
  assign : assignment array;  (** indexed by var *)
  nspills : int;
  used_regs : R2c_machine.Insn.reg list;  (** to be saved/restored *)
}

(** [allocate ~pool f] — assignment for every var of [f]. *)
val allocate : pool:R2c_machine.Insn.reg list -> Ir.func -> result

(** Exposed for tests: live interval of each var as (start, stop) over the
    linearized instruction positions. *)
val intervals : Ir.func -> (int * int) array
