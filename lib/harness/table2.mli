(** Table 2: median executed call frequencies of the SPEC-shaped suite
    (tail calls excluded — our codegen emits none, matching the paper's
    instrumentation note). The simulated counts sit at a documented scale
    (~2.5e-7) of the paper's; the table reports both and the resulting
    relative shape (each relative to its lbm row). *)

val run : unit -> Results.t
