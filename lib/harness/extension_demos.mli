(** The Section 5.1 / 7.3 / 8.2 extension experiments: the race-window
    attack against naive decoys and against R2C, the RA-zeroing side
    channel against plain, checked and load-time re-randomized R2C,
    backward-edge CFI alone and composed with R2C, and the MVEE
    divergence detector. *)

(** [run ()] — run every battery: one table per section, one row per
    battery, then the MVEE verdicts. *)
val run : unit -> Results.t
