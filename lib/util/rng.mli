(** Deterministic pseudo-random number generation (SplitMix64).

    Every randomized decision in the toolchain — diversification choices at
    compile time, workload inputs, attack trials — draws from an explicit
    generator so that a compilation or experiment is reproducible from its
    seed alone, mirroring the paper's per-seed recompilation methodology
    (Section 6.2). *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int -> t

(** [copy t] duplicates the generator state; the copy evolves
    independently. *)
val copy : t -> t

(** [split t] derives a statistically independent generator and advances
    [t]. Use to hand sub-seeds to compilation passes without coupling their
    consumption patterns. *)
val split : t -> t

(** [int64 t] returns the next raw 64-bit output. *)
val int64 : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)]. [bound] must be
    positive. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] returns a uniform integer in [\[lo, hi\]]
    (inclusive). Requires [lo <= hi]. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [bool t] returns a uniform boolean. *)
val bool : t -> bool

(** [float t bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [skip_floats_at_least t ~n ~floor] — when each of [t]'s next [n]
    [float t 1.0] draws is [>= floor], advance [t] past them (exactly as
    making them would) and return [true]; otherwise leave [t] untouched and
    return [false]. A caller that discards draws it knows cannot fall below
    any of its thresholds uses this to replay them without re-executing
    what made them. *)
val skip_floats_at_least : t -> n:int -> floor:float -> bool

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [shuffle_list t l] returns a permutation of [l]. *)
val shuffle_list : t -> 'a list -> 'a list

(** [choose t arr] picks a uniform element. [arr] must be non-empty. *)
val choose : t -> 'a array -> 'a

(** [choose_list t l] picks a uniform element. [l] must be non-empty. *)
val choose_list : t -> 'a list -> 'a

(** [sample_without_replacement t ~k arr] picks [k] distinct positions'
    elements uniformly. Requires [k <= Array.length arr]. *)
val sample_without_replacement : t -> k:int -> 'a array -> 'a list
