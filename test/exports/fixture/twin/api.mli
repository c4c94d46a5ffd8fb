(* Shares its basename with the fixture's [Api]: its [unused] is used, the
   other's is not. *)

val unused : int
