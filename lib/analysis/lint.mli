(** The R2C invariant linter: a rule registry over a linked image.

    Each rule statically re-checks one leg of the paper's security
    argument (Sections 5 and 7.2) against the image and its loaded memory
    view, returning structured findings with image addresses. A clean
    full-R2C image reports zero findings; an emit/link regression that
    weakens the defense shows up here before any dynamic attack does. *)

(** What the diversity configuration promises, i.e. which invariants are
    load-bearing for this image. Derive it with {!expect_of_dconfig} so
    the linter does not flag, say, readable text on a baseline build. *)
type expect

(** [expect_of_dconfig ?cph cfg] — the promises a {!R2c_core.Dconfig.t}
    makes. [cph] is a property of the defense model wrapped around the
    config (Readactor/CodeArmor), not of the config itself. *)
val expect_of_dconfig : ?cph:bool -> R2c_core.Dconfig.t -> expect

type finding = {
  rule : string;  (** registry name of the rule that fired *)
  f_addr : int option;  (** image address the finding anchors to *)
  detail : string;
}

val finding_to_string : finding -> string

(** [run ~expect img] — load [img] into fresh memory, recover its CFG and
    evaluate every rule. Findings are sorted by rule then address. *)
val run : expect:expect -> R2c_machine.Image.t -> finding list

(** {1 IR-level rules}

    The image rules above check the emitted defense; these check the
    *input* program with the {!Dataflow} fact tables, before any
    lowering. They are what [r2cc --tval] and the [experiments tval]
    gate run alongside the translation validator: a program that is
    clean here has well-defined block semantics, which the validator's
    rejoin checks rely on. *)

type ir_finding = {
  ir_rule : string;  (** registry name of the rule that fired *)
  ir_func : string;
  ir_block : Ir.label;
  ir_instr : int option;
      (** instruction index within the block; [None] = the terminator *)
  ir_detail : string;
}

val ir_finding_to_string : ir_finding -> string

(** [run_ir p] — evaluate every IR rule on every function. Findings are
    in deterministic (function, block, instruction) order. Only
    statically executable code is flagged: reads, stores and divisions
    behind a constant-false branch are dead, not defects. Precondition:
    every var lies in [[0, nvars)] and [nparams <= nvars], as
    {!Validate.check} enforces; an out-of-range var raises
    [Invalid_argument]. *)
val run_ir : Ir.program -> ir_finding list
