(** Section 6.3's scalability experiment: compile large generated programs
    under full R2C and verify they run correctly (the browser-build
    analogue — correctness at scale, not speed). *)

type row = {
  funcs : int;
  ir_instrs : int;
  text_kb : int;
  data_kb : int;
  compile_seconds : float;
  run_ok : bool;  (** output matches the reference interpreter *)
}

val run : ?sizes:int list -> unit -> row list

(** [results rows] — the compile seconds are host-timed. *)
val results : row list -> Results.t
