(** Reproducer corpus: shrunk divergences persisted as [.r2c] files.

    A surviving divergence is saved via the [Text] surface syntax (the
    [Text] print/parse round-trip is part of the fuzz test suite), so a
    reproducer is a standalone compiler input: [r2cc file.r2c] compiles
    it, [experiments fuzz] and [dune runtest] replay everything under
    [test/corpus/]. An absent or empty directory is vacuously clean, so
    CI is green before the first find. *)

(** [save ~dir ~name p] — write [p] as [dir/name.r2c] (directory created
    if missing), returning the path. *)
val save : dir:string -> name:string -> Ir.program -> string

(** [files ~dir] — sorted [.r2c] paths under [dir]; [] if the directory
    does not exist. *)
val files : dir:string -> string list

(** [load path] — parse a reproducer back into IR. *)
val load : string -> (Ir.program, string) result
