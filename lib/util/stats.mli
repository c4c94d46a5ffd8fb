(** Descriptive statistics and the 1-D value clustering used by AOCR's
    pointer analysis.

    The evaluation reports medians, geometric means and maxima (Table 1,
    Figure 6); the AOCR attack groups leaked stack words by value range
    (Section 2.3 / 4.2). Both live here. *)

(** [mean xs] — arithmetic mean. [xs] must be non-empty. *)
val mean : float list -> float

(** [geomean xs] — geometric mean; all elements must be positive. *)
val geomean : float list -> float

(** [median xs] — the median (average of middle pair for even lengths). *)
val median : float list -> float

(** [median_int xs] — integer median (lower middle for even lengths). *)
val median_int : int list -> int

(** [maximum xs] on a non-empty list. *)
val maximum : float list -> float

(** [pearson xs ys] — Pearson correlation coefficient of two equal-length
    series (the paper correlates call frequency with overhead in
    Section 7.1). Returns 0 for degenerate series. *)
val pearson : float list -> float list -> float

(** A cluster of numerically close values, as produced by {!cluster}. *)
type cluster = {
  lo : int;  (** smallest member *)
  hi : int;  (** largest member *)
  members : int list;  (** all members, ascending *)
}

(** [cluster ~gap values] sorts [values] and splits them wherever two
    neighbours differ by more than [gap]. This reproduces the AOCR paper's
    observation that pointer values on x86-64 occur in tight clusters (text,
    data, heap, stack) separated by huge gaps. Result is ordered by
    ascending [lo]. *)
val cluster : gap:int -> int list -> cluster list
