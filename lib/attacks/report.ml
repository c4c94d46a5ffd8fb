type t = {
  success : bool;
  detected : bool;
  crashes : int;
  attempts : int;
  notes : string list;
  sensitive : (int * int) list;
}

let of_target ?success ?(attempts = 1) ?(notes = []) t =
  {
    success = (match success with Some s -> s | None -> Oracle.compromised t);
    detected = Oracle.detected t;
    crashes = Oracle.crashes t;
    attempts;
    notes;
    sensitive = Oracle.sensitive_log t;
  }

type tally = {
  target : Oracle.t;
  mutable tries : int;
  mutable log : string list;  (* newest first *)
}

let tally target = { target; tries = 0; log = [] }
let note tl fmt = Printf.ksprintf (fun s -> tl.log <- s :: tl.log) fmt
let attempt tl = tl.tries <- tl.tries + 1
let of_tally ?success tl = of_target ?success ~attempts:tl.tries ~notes:(List.rev tl.log) tl.target

let to_string r =
  Printf.sprintf "%s%s (crashes=%d attempts=%d)%s"
    (if r.success then "SUCCESS" else "failed")
    (if r.detected then ", DETECTED" else "")
    r.crashes r.attempts
    (match r.notes with [] -> "" | ns -> "\n  " ^ String.concat "\n  " ns)
