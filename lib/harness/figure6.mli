(** Figure 6: per-benchmark overhead of full R2C protection on the four
    machine profiles (Section 6.2.4). Worst-case configuration: BTRAs also
    on call sites into unprotected library code, AVX2 setup, 0-5 BTDPs,
    1-9 NOPs, 1-5 prolog traps, all layout randomizations, XOM, ASLR. *)

(** [run ?seeds ?jobs ()] — the full machine x benchmark matrix: one
    column per machine, a geomean row, and an ASCII rendering of the
    figure's bars (text only). Cells are independent (each compiles and
    runs its own images), so they fan out over a {!R2c_util.Parallel}
    domain pool; [jobs] caps the pool (default [Parallel.default_jobs ()],
    serial when 1). The result is identical to the serial run regardless
    of [jobs]. *)
val run : ?seeds:int list -> ?jobs:int -> unit -> Results.t
