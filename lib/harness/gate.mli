(** The shape every experiment gate shares: criteria as [(check, detail,
    ok)] triples. [failed] keeps the [(check, detail)] of each criterion
    that is not [ok], in order — the pairs {!Experiment.findings} turns
    into findings. *)
val failed : (string * string * bool) list -> (string * string) list
