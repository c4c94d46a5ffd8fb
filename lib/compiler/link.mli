(** Layout and linking.

    Assigns text addresses (builtin PLT entries first, then the synthesized
    [_start], then all functions in the — possibly shuffled — order from
    {!Opts.t.func_order}), lays out globals in the data section in the —
    possibly shuffled and padded — order from {!Opts.t.global_order},
    resolves every symbolic immediate, and produces the {!Image.t} the
    loader maps.

    Linking is split in two. A {!plan} holds everything that does not
    depend on the layout, with every symbol interned once into a dense
    id; {!place} lays one plan out under one set of layout hooks, by
    integer arithmetic. The incremental rebuild path caches the plan, so
    a rerandomization relink is one placement.

    ASLR is the [*_slide] fields of {!Opts.t}: a fresh link per process,
    exactly like a PIE load. *)

(** A function body's layout-independent placement data: its bytes,
    per-instruction byte offsets, the (sparse) relocation list and its
    unwind and checked call sites as offsets from the entry. *)
type template

val template : Asm.emitted -> template

(** The layout-independent half of a link. *)
type plan

(** [plan ~opts ~main pairs globals] — interns every symbol and resolves
    every reference to an id. [pairs] must contain [main] and every
    constructor named in [opts]. Of [opts] it reads only the machine
    description, [constructors], [func_alias] and [extra_globals]. Raises
    [Invalid_argument] on a duplicate or undefined symbol. *)
val plan :
  opts:Opts.t -> main:string -> (Asm.emitted * template) list -> Ir.global list -> plan

(** [place plan ~opts] — the image under [opts]' layout hooks
    ([func_order], [func_pad], [global_order], the slides) and image
    settings ([text_perm], [stack_bytes], [shadow_stack]); images placed
    from one plan share its symbol table. The order hooks permute the
    plan's indices, so placing looks up no name, and the site tables
    ({!R2c_machine.Image.sites}) are left to their first reader. Raises
    [Invalid_argument] when an order hook's result is not a permutation
    of the right length or a region overflows. *)
val place : plan -> opts:Opts.t -> R2c_machine.Image.t

(** [link ~opts ~main emitted globals] — [place] of a fresh [plan]. *)
val link :
  opts:Opts.t -> main:string -> Asm.emitted list -> Ir.global list -> R2c_machine.Image.t
