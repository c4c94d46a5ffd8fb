(** Attack outcomes.

    Every attack returns one of these; the security harness (Table 3 and
    the Section 7.2 experiments) aggregates them over trials. *)

type t = {
  attack : string;
  success : bool;  (** the attack reached its goal *)
  detected : bool;  (** a booby trap or guard page fired along the way *)
  crashes : int;  (** plain crashes observed (restart oracle uses) *)
  attempts : int;  (** probes/interactions used *)
  notes : string list;  (** free-form trace for the report *)
}

val make :
  attack:string ->
  success:bool ->
  detected:bool ->
  ?crashes:int ->
  ?attempts:int ->
  ?notes:string list ->
  unit ->
  t

val to_string : t -> string
