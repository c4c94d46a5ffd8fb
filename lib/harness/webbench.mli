(** Section 6.2.4's webserver benchmarks: nginx/Apache throughput under
    full R2C versus baseline. Throughput is CPU-bound at saturation, so the
    drop equals the cycle overhead of the serving loop; the harness also
    reports the wrk-style saturation sweep used to pick the measurement
    point. *)

val run : ?seeds:int list -> ?requests:int -> unit -> Results.t
