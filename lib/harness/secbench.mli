(** Section 7.2's probabilistic security claims, cross-checked empirically:

    - return-address camouflage: how many return-address candidates an
      attacker actually sees in a leaked R2C frame, versus the analytic
      1/(R+1) guess probability (Section 7.2.1);
    - heap-pointer camouflage: benign-vs-BTDP population in the leaked
      stack and the H/(H+B) pick probability (Section 7.2.3);
    - Monte-Carlo campaigns: AOCR and Blind ROP trial batteries with
      detection statistics (Sections 7.2 and 7.3). *)

type t = {
  ra_candidates_mean : float;  (** text-range words around the RA slot *)
  analytic_ra_p : float;
  empirical_ra_p : float;
  heap_benign_mean : float;
  heap_btdp_mean : float;
  analytic_pick_p : float;
  empirical_pick_p : float;
  aocr_trials : int;
  aocr_successes : int;
  aocr_detections : int;
  brop_trials : int;
  brop_successes : int;
  brop_detections : int;
}

(** [run ?trials ?jobs ()] — the frame-census, AOCR and Blind-ROP trial
    batteries, fanned out per trial over a {!R2c_util.Parallel} domain
    pool ([jobs] caps it; results are independent of [jobs]). *)
val run : ?trials:int -> ?jobs:int -> unit -> t
val results : t -> Results.t

(** [gate t] — violated criteria as [(check, detail)] pairs (empty =
    pass): neither battery ever breaches full R2C. *)
val gate : t -> (string * string) list
