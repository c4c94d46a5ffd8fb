(** The compilation pipeline: validate -> emit -> link.

    [compile] with default options is the paper's baseline compiler; R2C is
    [compile] with the options produced by [R2c_core.Pipeline]. *)

exception Invalid_program of Validate.error list

(** [compile ?opts program] — raises {!Invalid_program} on IR errors. *)
val compile : ?opts:Opts.t -> Ir.program -> R2c_machine.Image.t

(** [compile_with_meta ?opts program] — {!compile}, also returning each IR
    function's lowering metadata ({!Emit.tvmeta}, keyed by name) for the
    translation validator. Raw functions carry no metadata. *)
val compile_with_meta :
  ?opts:Opts.t -> Ir.program -> R2c_machine.Image.t * (string * Emit.tvmeta) list
