(** Sanitizer wiring self-check: is the linter actually watching?

    Each {!mutation} deliberately breaks exactly one invariant of a
    healthy image — a dropped Section 7.3 post-return check, a skipped
    mprotect text seal, a raw code pointer planted in readable data — and
    {!run} asserts the linter flags it with findings from {e exactly} the
    corresponding rule and no other. A rule that fires on the wrong
    mutation, or not at all, is miswired. *)

type mutation =
  | Drop_btra_postcheck
      (** replace the first post-return check's load with a same-size NOP *)
  | Skip_mprotect  (** leave the text mapping read-write, never sealed *)
  | Plant_code_pointer
      (** append a readable data word holding a real function entry *)

val mutation_to_string : mutation -> string

(** [apply m img] — a mutated copy; [img] itself is never modified.
    [Drop_btra_postcheck] requires an image built with
    [check_after_return] (raises [Invalid_argument] otherwise). *)
val apply : mutation -> R2c_machine.Image.t -> R2c_machine.Image.t

type outcome = {
  mutation : mutation;
  expected : string;
  rules_hit : string list;  (** distinct rules that fired, sorted *)
  n_findings : int;
  ok : bool;  (** fired, and only the expected rule did *)
}

val run : expect:Lint.expect -> R2c_machine.Image.t -> outcome list

(** {1 IR rule pack + translation validator wiring}

    Same discipline, one level earlier: each {!ir_mutation} twists one
    instruction of a minimal carrier program and must be flagged by
    exactly its {!Lint.ir_rules} rule — or, for [Lowering_mismatch], by
    the translation validator ({!Tval}), which sees the twisted twin's
    machine code against the true carrier's IR semantics. *)

type ir_mutation =
  | Read_uninitialized  (** an operand becomes a var nothing defines *)
  | Orphan_definition  (** a constant [Mov] nobody reads is prepended *)
  | Zero_divisor  (** the division's divisor becomes [Const 0] *)
  | Slot_escape  (** a load offset walks one word past its slot *)
  | Lowering_mismatch  (** the compiled code computes [Add] where the IR says [Sub] *)

val ir_mutation_to_string : ir_mutation -> string

(** The clean program the mutations twist; exposed so the test suite can
    assert it is finding-free under the whole rule pack and validator. *)
val carrier : unit -> Ir.program

type ir_outcome = {
  ir_mutation : ir_mutation;
  ir_expected : string;
  ir_rules_hit : string list;  (** distinct rules that fired, sorted *)
  ir_n_findings : int;
  ir_ok : bool;  (** fired, and only the expected rule did *)
}

(** [run_ir ?seed ()] — every mutation against the carrier; [seed] feeds
    the {!Lowering_mismatch} compile (default 3). *)
val run_ir : ?seed:int -> unit -> ir_outcome list
