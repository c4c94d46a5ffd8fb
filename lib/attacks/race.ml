open R2c_machine

(* The dispatch call inside process_request is its third call site. *)
let call_site_symbol = "__call_process_request_2"

let run ~target:t =
  match Oracle.to_symbol t call_site_symbol with
  | `Done o ->
      Report.of_target ~success:false
        ~notes:[ "victim never reached the call site: " ^ Process.outcome_to_string o ]
        t
  | `Break -> (
      (* Snapshot around the stack pointer: the RA slot will be written at
         rsp-8 by the call. Both snapshots use the same absolute window —
         the call itself moves rsp. *)
      let words = 48 in
      let lo_off = -8 * 16 in
      let base = Oracle.rsp t + lo_off in
      let before = Oracle.leak_at t ~addr:base ~words in
      match Oracle.step t with
      | Error f ->
          Report.of_target ~success:false ~notes:[ "call faulted: " ^ Fault.to_string f ] t
      | Ok () -> (
          let after = Oracle.leak_at t ~addr:base ~words in
          let changed = ref [] in
          Array.iteri
            (fun i v ->
              if v <> before.(i) && Addr.region_of v = Addr.Text then
                changed := (lo_off + (8 * i), v) :: !changed)
            after;
          match !changed with
          | [ (off, v) ] ->
              Report.of_target ~success:true
                ~notes:
                  [
                    Printf.sprintf
                      "exactly one word changed across the call: rsp%+d now holds 0x%x — the \
                       return address, unmasked"
                      off v;
                  ]
                t
          | [] ->
              Report.of_target ~success:false
                ~notes:
                  [
                    "no stack word changed across the call: the return address was \
                     pre-written (Figure 3's race-free setup)";
                  ]
                t
          | many ->
              Report.of_target ~success:false
                ~notes:[ Printf.sprintf "%d words changed: ambiguous diff" (List.length many) ]
                t))
