(** One observability context: a metrics registry, an event timeline, and
    the profilers collected along the way.

    This is the value the [?obs] optional arguments accept
    ({!R2c_harness.Measure.run}, [Pool.create], [Fleet.create]); a harness
    creates one, threads it through, and reads everything back at the
    end. When no sink is attached anywhere, every hook is a no-op. *)

type t = private {
  metrics : Metrics.t;
  events : Events.t;
  mutable profiles : (string * Profile.t) list;  (** label → profiler, in
                                                     attachment order *)
}

(** [create ?limit ()] — fresh registry and timeline ([limit] bounds the
    timeline, default 200k events). *)
val create : ?limit:int -> unit -> t

(** [add_profile t label p] — record a profiler under [label] (appended;
    duplicate labels keep both, {!profile} returns the first). *)
val add_profile : t -> string -> Profile.t -> unit

val profile : t -> string -> Profile.t option
