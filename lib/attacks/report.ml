type t = {
  attack : string;
  success : bool;
  detected : bool;
  crashes : int;
  attempts : int;
  notes : string list;
}

let make ~attack ~success ~detected ?(crashes = 0) ?(attempts = 1) ?(notes = []) () =
  { attack; success; detected; crashes; attempts; notes }

let to_string r =
  Printf.sprintf "%s: %s%s (crashes=%d attempts=%d)%s" r.attack
    (if r.success then "SUCCESS" else "failed")
    (if r.detected then ", DETECTED" else "")
    r.crashes r.attempts
    (match r.notes with [] -> "" | ns -> "\n  " ^ String.concat "\n  " ns)
