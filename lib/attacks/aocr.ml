open R2c_machine
module Rng = R2c_util.Rng

(* Step A: the AOCR statistical analysis, via the shared value-range
   clustering (Section 2.3). *)
let heap_candidates values =
  Cluster.heap_candidates (Cluster.analyze (Array.to_list values))

(* Heap-cluster picks tried before giving up. *)
let max_candidates = 12

let run ~rng ~reference:(r : Reference.t) ~target:t =
  let tl = Report.tally t in
  let note fmt = Report.note tl fmt in
  let give_up why =
    note "%s" why;
    Report.of_tally tl
  in
  match Oracle.to_serving t with
  | Error why -> give_up why
  | Ok () -> (
      (* A: two pages of stack values (Section 4.2). *)
      let values = Oracle.leak_at t ~addr:(Oracle.rsp t) ~words:1024 in
      let candidates = heap_candidates values in
      note "heap cluster: %d candidates" (List.length candidates);
      if candidates = [] then give_up "no heap cluster found"
      else
        (* B: pick-and-dereference until a session object surfaces. *)
        let shuffled = Rng.shuffle_list rng candidates in
        let rec probe tried = function
          | [] -> None
          | _ when tried >= max_candidates -> None
          | _ when Oracle.detected t -> None
          | cand :: rest -> (
              Report.attempt tl;
              match Oracle.arb_read t (cand + 8) with
              | Ok v when Addr.region_of v = Addr.Data -> Some v
              | Ok _ -> probe (tried + 1) rest
              | Error f ->
                  note "deref 0x%x faulted: %s" cand (Fault.to_string f);
                  Oracle.restart t;
                  (* The worker respawned; re-enter the same serving state
                     so the leaked heap addresses are live again. *)
                  if Oracle.detected t then None
                  else (
                    match Oracle.to_serving t with
                    | Ok () -> probe (tried + 1) rest
                    | Error _ -> None))
        in
        match probe 0 shuffled with
        | None ->
            if Oracle.detected t then give_up "monitoring response (booby trap fired)"
            else give_up "no data-section pointer reached through the heap"
        | Some data_ptr ->
            (* The reached field is g_motd's address; globals follow at
               reference-known deltas. *)
            let default_cmd = data_ptr + r.default_cmd_delta in
            let service_table = data_ptr + r.service_table_delta in
            note "data section reached via 0x%x" data_ptr;
            (* C: corrupt the default parameter, then redirect dispatch to
               the harvested whole function. *)
            Report.attempt tl;
            (match Oracle.arb_write t default_cmd R2c_workloads.Vulnapp.marker with
            | Ok () -> (
                match Oracle.arb_read t (service_table + 24) with
                | Ok exec_ptr when Addr.region_of exec_ptr = Addr.Text -> (
                    match Oracle.arb_write t service_table exec_ptr with
                    | Ok () ->
                        let (_ : Process.outcome) = Oracle.resume_to_end t in
                        ()
                    | Error f -> note "table write faulted: %s" (Fault.to_string f))
                | Ok v -> note "harvested non-code pointer 0x%x" v
                | Error f -> note "table read faulted: %s" (Fault.to_string f))
            | Error f -> note "default-param write faulted: %s" (Fault.to_string f));
            Report.of_tally tl)
