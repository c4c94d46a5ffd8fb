(** A server as a remote attacker sees it, the whole feedback channel Blind
    ROP assumes (Section 4.1). {!Oracle.victim} (a lone process) and the
    chaos harness's worker pool both implement it. *)

type verdict =
  | Served of int  (** the request completed; the response lines seen *)
  | Died of int  (** the worker crashed or timed out after this many lines *)
  | Refused  (** no worker took the request *)

type t = {
  probe : string -> verdict;  (** one request carrying this payload *)
  compromised : unit -> bool;  (** the success test, not attacker feedback *)
}
