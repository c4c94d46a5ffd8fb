(** Analytic security bounds of Section 7.2.

    The Monte-Carlo attack experiments (bench `security`) cross-check these
    closed forms. *)

(** [guess_return_address ~btras] — probability of picking the real return
    address among [btras] booby-trapped ones: 1/(R+1) (Section 7.2.1). *)
val guess_return_address : btras:int -> float

(** [guess_n_return_addresses ~btras ~n] — all [n] picks correct:
    (1/(R+1))^n; the paper's example is n=4, R=10 ~ 0.00007. *)
val guess_n_return_addresses : btras:int -> n:int -> float

(** [pick_benign_heap_pointer ~benign ~btdps] — H/(H+B) (Section 7.2.3). *)
val pick_benign_heap_pointer : benign:int -> btdps:int -> float

(** [expected_btdps_in_leak ~min_per_func ~max_per_func ~frames] — E(B)*S
    for a leak of [frames] stack frames (Section 7.2.3). *)
val expected_btdps_in_leak : min_per_func:int -> max_per_func:int -> frames:int -> float
