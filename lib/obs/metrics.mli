(** Metrics registry: counters, gauges, and log-bucketed histograms with a
    Prometheus-style text exposition and a JSON dump.

    The registry reads counts and owns only samples. A counter or gauge is
    registered with a function that reads the total from the code that
    keeps it (a pool's stats, a fleet's clock, a profiler's totals), and
    {!expose} and {!to_json} call it when they render, so no count is
    stored twice. A histogram keeps its own samples, since nothing else
    does. The machine, pool and harness layers register into a registry
    when one is attached; nothing in the hot path touches a registry
    otherwise. Instruments are registered by name — registration is
    idempotent, so a re-attached observer finds its existing histogram
    instead of a duplicate series, and a re-registered counter or gauge
    reads through its newest function. The exposition lists instruments
    in the order they were first registered.

    Histograms are log2-bucketed: bucket 0 counts values [<= 1], bucket
    [i >= 1] counts values in [(2^(i-1), 2^i]]. The exposition renders them
    as cumulative Prometheus buckets with [le="2^i"] bounds. *)

type t
type histogram

val create : unit -> t

(** Instrument registration — idempotent per name; raises
    [Invalid_argument] if the name is already registered as a different
    kind. [help] is kept from the first registration. *)

(** [counter t name read] — a monotone count; [read ()] is its value. *)
val counter : ?help:string -> t -> string -> (unit -> int) -> unit

(** [gauge t name read] — a value that can go down; [read ()] is its value. *)
val gauge : ?help:string -> t -> string -> (unit -> float) -> unit

val histogram : ?help:string -> t -> string -> histogram

(** [observe h v] — record a (non-negative) sample. *)
val observe : histogram -> int -> unit

(** Reads. [counter_value] and [gauge_value] raise [Not_found] when no
    instrument of that kind has the name. *)

val counter_value : t -> string -> int

val gauge_value : t -> string -> float

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
