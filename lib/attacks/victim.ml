type verdict = Served of int | Died of int | Refused
type t = { probe : string -> verdict; compromised : unit -> bool }
