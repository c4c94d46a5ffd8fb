(** The experiment registry: one record per paper experiment or gate.

    Every front-end iterates {!all}: [bin/experiments.exe] (one
    subcommand per entry, plus [all], [check] and [determinism]), [make
    check] and CI. An entry's flags are a cmdliner term whose defaults are
    the values [make check] runs it at; running it yields a {!report}
    holding one typed {!Results.t}. Its text and both JSON halves derive
    from that one value: {!det} gathers the fields and columns marked
    deterministic (byte-identical at any job count), {!volatile} the
    host-timed ones plus the job count and wall clock. Gate breaches are
    {!finding}s: one structured value, rendered as text
    ({!findings_to_string}) and JSON (the [findings] member of
    {!to_json}: [{"experiment", "check", "detail"}] each). *)

type finding = {
  experiment : string;
  check : string;  (** the gate criterion that failed *)
  detail : string;
}

val findings_to_string : finding list -> string

(** [findings experiment gate] — one finding per [(check, detail)] pair
    of a harness [gate] result. *)
val findings : string -> (string * string) list -> finding list

type report = {
  results : Results.t;  (** printed with {!Results.text} *)
  findings : finding list;  (** empty = every gate passed *)
  jobs : int;  (** the effective domain-pool width *)
  wall_ms : float;
}

(** The deterministic half: the {!Results.Det} items. *)
val det : report -> R2c_obs.Json.t

type t =
  | Experiment : {
      name : string;
      doc : string;
      term : 'a Cmdliner.Term.t;  (** the experiment's own flags *)
      run : jobs:int option -> 'a -> Results.t * (string * string) list;
          (** the results and the gate's [(check, detail)] failures *)
      check : bool;  (** part of [experiments check] / [make check] *)
    }
      -> t

(** Every experiment, in subcommand order. Names are unique. *)
val all : t list

val name : t -> string

(** [command e] — [e]'s flags, parsed into a runner that times the run. *)
val command : t -> (jobs:int option -> report) Cmdliner.Term.t

(** [run ?jobs e] — run [e] at its flag defaults, as {!command} would. *)
val run : ?jobs:int -> t -> report

(** [to_json name r] — [{"experiment", "det", "volatile", "findings"}]. *)
val to_json : string -> report -> R2c_obs.Json.t

(** The profile and fuzz gates, whose reports are assembled here rather
    than in a harness module; [(check, detail)] pairs, empty = pass. *)

val profile_gate :
  sums_ok:bool -> trace_error:string option -> spans:int -> expected:int ->
  (string * string) list

val fuzz_gate :
  R2c_fuzz.Campaign.report ->
  replay_failures:(string * string) list ->
  R2c_fuzz.Campaign.self_check ->
  (string * string) list
