(** Metrics registry: counters, gauges, and log-bucketed histograms with a
    Prometheus-style text exposition and a JSON dump.

    The machine, pool and harness layers publish into a registry when one
    is attached; nothing in the hot path touches a registry otherwise.
    Instruments are registered by name — registration is idempotent, so a
    re-attached observer finds its existing instrument instead of a
    duplicate series.

    Histograms are log2-bucketed: bucket 0 counts values [<= 1], bucket
    [i >= 1] counts values in [(2^(i-1), 2^i]]. The exposition renders them
    as cumulative Prometheus buckets with [le="2^i"] bounds. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

(** Instrument registration — idempotent per name; raises
    [Invalid_argument] if the name is already registered as a different
    kind. [help] is kept from the first registration. *)

val counter : ?help:string -> t -> string -> counter

val gauge : ?help:string -> t -> string -> gauge

val histogram : ?help:string -> t -> string -> histogram

(** Updates. *)

val inc : ?by:int -> counter -> unit

(** [set_counter c v] — jump the counter to an externally tracked monotone
    total (mirroring an existing stats struct). *)
val set_counter : counter -> int -> unit

val set_gauge : gauge -> float -> unit

(** [observe h v] — record a (non-negative) sample. *)
val observe : histogram -> int -> unit

(** Reads. *)

val counter_value : counter -> int

val hist_count : histogram -> int

val hist_sum : histogram -> float

(** [bucket_of v] — the bucket index a value lands in (exposed for
    tests). *)
val bucket_of : int -> int

(** [bucket_bound i] — inclusive upper bound of bucket [i] ([2^i]). *)
val bucket_bound : int -> int

(** [percentile h p] — nearest-rank percentile ([0 < p <= 100]) as the
    upper bound of the bucket containing that rank; 0 on an empty
    histogram. *)
val percentile : histogram -> float -> int

(** [expose t] — Prometheus text exposition format. *)
val expose : t -> string

(** [to_json t] — the whole registry as one JSON object. *)
val to_json : t -> Json.t
