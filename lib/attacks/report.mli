(** Attack outcomes.

    Every attack returns one of these; the security harness (Table 3 and
    the Section 7.2 experiments) aggregates them over trials, keyed by the
    attack's name in {!Suite.all}. *)

type t = {
  success : bool;  (** the attack reached its goal *)
  detected : bool;  (** a booby trap or guard page fired along the way *)
  crashes : int;  (** plain crashes observed (restart oracle uses) *)
  attempts : int;  (** probes/interactions used *)
  notes : string list;  (** free-form trace for the report *)
  sensitive : (int * int) list;  (** the victim's (rdi, rsi) privileged calls *)
}

(** [of_target ?success ?attempts ?notes t] — the report on target [t] as
    it stands: detection, crashes and the privileged-call log are read off
    it. [success] defaults to {!Oracle.compromised}; [attempts] to 1. *)
val of_target : ?success:bool -> ?attempts:int -> ?notes:string list -> Oracle.t -> t

(** A probing campaign's running tally against one target: the attempts
    made and the notes taken so far. *)
type tally = private { target : Oracle.t; mutable tries : int; mutable log : string list }

val tally : Oracle.t -> tally

(** [note tl fmt ...] — append a note. *)
val note : tally -> ('a, unit, string, unit) format4 -> 'a

(** [attempt tl] — count one more attempt. *)
val attempt : tally -> unit

(** [of_tally ?success tl] — {!of_target} with the tally's attempts and
    notes. *)
val of_tally : ?success:bool -> tally -> t

val to_string : t -> string
