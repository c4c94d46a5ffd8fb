(** Static translation validation: per-function, per-block symbolic
    execution of the emitted machine code against the IR semantics.

    For every IR basic block the validator builds the block's expected
    effect — the ordered list of memory/call events plus the symbolic
    value each live-out var must hold at the block boundary — and then
    symbolically executes the machine instructions between the block's
    label and the next label (for the entry block: from the function
    entry, through the prologue). The machine run must produce exactly
    the expected events in order, rejoin the IR state at the block exit,
    and keep the stack balanced. Diversification artifacts are the
    *normalization rules*: NOPs are skipped; the prolog trap sled's jump
    is followed; BTRA pre/post pushes, vector batch stores and the
    post-return check (a compare-and-branch over a trap) touch only
    below-frame scratch and normalize away; BTDP prologue copies land in
    camouflage-classified frame slots; shuffled slot and spill offsets
    are resolved through the {!R2c_compiler.Emit.tvmeta} frame map, so a
    permuted frame validates iff an identity frame does.

    Preconditions (all enforced elsewhere): the program passes
    [Ir.Validate.check] (in particular the use-before-init check — block
    rejoin checks compare homes only for live-out vars, which that check
    makes well-defined), and the config does not alias function symbols
    (no CPH — true of the whole [Fuzz.Oracle.matrix]). IR stores through
    out-of-range pointers that would alias compiler-owned frame slots
    are undetectable statically by construction; the
    [oob-const-slot-offset] lint rule covers the statically visible
    case. *)

type finding

type report = {
  findings : finding list;  (** deterministic (layout) order *)
  funcs : int;  (** functions validated *)
  blocks : int;  (** blocks validated *)
}

val finding_to_string : finding -> string

(** [validate ~img ~meta p] — validate every function of [p] against its
    emitted code in [img]. [meta] is keyed by function name (from
    {!R2c_compiler.Driver.compile_with_meta} or
    {!R2c_core.Pipeline.compile_with_meta}); a function without metadata
    is itself a finding. *)
val validate :
  img:R2c_machine.Image.t ->
  meta:(string * R2c_compiler.Emit.tvmeta) list ->
  Ir.program ->
  report

(** [validate_config ?seed cfg p] — compile [p] under [cfg] via the full
    pipeline and validate the instrumented program (including e.g. the
    BTDP constructor) against the linked image. *)
val validate_config : ?seed:int -> R2c_core.Dconfig.t -> Ir.program -> report
