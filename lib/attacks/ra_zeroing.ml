open R2c_machine

(* Zeroing probes (confirmations included) before giving up. *)
let max_probes = 40

let run ~target:t =
  let tl = Report.tally t in
  let note fmt = Report.note tl fmt in
  (* Success is disclosure, not the marker chain. *)
  let stop ?(success = false) why =
    note "%s" why;
    Report.of_tally ~success tl
  in
  (* Fresh worker, same layout; re-reach the mid-request state (second
     request, after its read_input returned) and zero the candidate. *)
  let zero off =
    Oracle.restart t;
    match Oracle.to_serving t with
    | Error _ -> `Gone
    | Ok () -> (
        match Oracle.arb_write t (Oracle.rsp t + off) 0 with
        | Error _ -> `Write_failed
        | Ok () -> `Ended (Oracle.resume_to_end t))
  in
  match Oracle.to_serving t with
  | Error why -> stop why
  | Ok () ->
      (* Candidates: byte offsets (from rsp) of text-range words in the live
         window — return-address candidates in BTRA terms. *)
      let values = Oracle.leak_at t ~addr:(Oracle.rsp t) ~words:96 in
      let candidates = ref [] in
      Array.iteri
        (fun i v -> if Addr.region_of v = Addr.Text then candidates := (8 * i) :: !candidates)
        values;
      let candidates = List.rev !candidates in
      note "%d return-address candidates in the window" (List.length candidates);
      let rec probe = function
        | [] -> Report.of_tally ~success:false tl
        | _ when tl.tries >= max_probes -> stop "probe budget exhausted"
        | _ when Oracle.detected t -> stop "monitoring response (consistency check fired)"
        | off :: rest -> (
            Report.attempt tl;
            match zero off with
            | `Gone -> stop "worker gone"
            | `Write_failed -> stop "write failed"
            | `Ended (Process.Crashed (Fault.Booby_trap _)) ->
                (* The zeroed word was a checked BTRA: Section 7.3's
                   counter-measure caught the campaign. *)
                probe rest
            | `Ended (Process.Crashed _) -> (
                (* Confirm: a disclosure is only actionable if it holds on
                   the respawned worker (load-time re-randomization breaks
                   exactly this, Section 7.3). *)
                Report.attempt tl;
                match zero off with
                | `Gone -> stop "worker gone"
                | `Write_failed | `Ended (Process.Crashed (Fault.Booby_trap _)) -> probe rest
                | `Ended (Process.Crashed _) ->
                    stop ~success:true
                      (Printf.sprintf "crash on zeroing rsp+%d twice: that is the return address"
                         off)
                | `Ended (Process.Exited _ | Process.Timeout) ->
                    note "rsp+%d not stable across respawn" off;
                    probe rest)
            | `Ended (Process.Exited _ | Process.Timeout) ->
                (* Survived: the word was a booby-trapped decoy. *)
                probe rest)
      in
      probe candidates
