(** The attack suite: every attack by name, run against the vulnerable
    server under a defense model. Table 3 selects its columns from
    {!all}, and [r2c-attack] resolves its argument with {!find}. *)

module Defenses = R2c_defenses.Defenses

(** [target d ~seed] — the victim: the server built under [d] at [seed],
    relinked at a fresh seed on every respawn when [d.rerandomize]. *)
val target : Defenses.t -> seed:int -> Oracle.t

(** [scenario ?reference_seed d ~seed] — the attacker's reference copy
    (built under [d] at [reference_seed], default [seed + 1000]) and the
    {!target}. The seeds differ, so under no or static diversification the
    binaries coincide (the monoculture), and under per-binary
    diversification every transferred offset is potentially stale. *)
val scenario : ?reference_seed:int -> Defenses.t -> seed:int -> Reference.t * Oracle.t

(** [all] — [(name, run)] for each attack at its default budgets; [run d
    ~seed] builds the {!scenario} and runs the attack. *)
val all : (string * (Defenses.t -> seed:int -> Report.t)) list

(** [find name] — the entry whose name equals [name] ignoring case and
    ['-'] ([jitrop] finds [jit-rop]). *)
val find : string -> (string * (Defenses.t -> seed:int -> Report.t)) option
