(** Section 6.2.5's memory overhead: maxrss of the SPEC-shaped suite and
    the webserver workers under full R2C, with the BTDP guard-page share
    isolated by differencing against a full-minus-BTDP build. *)

(** [run ?seed ?jobs ()] — one row per workload, fanned out over a
    {!R2c_util.Parallel} domain pool ([jobs] caps it; results are
    independent of [jobs]), then the SPEC median. *)
val run : ?seed:int -> ?jobs:int -> unit -> Results.t
