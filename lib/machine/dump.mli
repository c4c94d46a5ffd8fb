(** Objdump-style rendering of a linked image: functions in layout order
    with symbolized headers, and annotations on the R2C artifacts (booby
    trap bodies, BTRA pushes/batches, BTDP stores, prolog traps) so a
    diversified binary can be studied the way the paper's figures present
    theirs. *)

(** [image img] — the whole text section: a summary paragraph (sizes,
    function/trap counts, text permissions, unwind-table rows), then every
    function in address order. *)
val image : Image.t -> string
