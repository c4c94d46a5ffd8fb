open R2c_machine

(* The Snow et al. page harvest: starting from pages of leaked code
   pointers, disassemble whole pages and enqueue the pages of discovered
   direct-call targets. Reads never leave known code pages, so the walk is
   crash-free on readable text — and dies on the very first page under
   execute-only memory. *)
type harvest = {
  mutable gadget : int option;
  mutable call_targets : int list;
  mutable faulted : bool;
  visited : (int, unit) Hashtbl.t;
  mutable frontier : int list;
}

let scan_page t h page =
  let addr = ref page in
  let stop = page + Addr.page_size in
  while (not h.faulted) && !addr < stop do
    (match Oracle.disasm t !addr with
    | Error _ -> h.faulted <- true
    | Ok None -> ()
    | Ok (Some (insn, len)) -> (
        (match insn with
        | Insn.Call (Insn.TAbs a) ->
            h.call_targets <- a :: h.call_targets;
            let p = Addr.page_base a in
            if not (Hashtbl.mem h.visited p) then h.frontier <- p :: h.frontier
        | _ -> ());
        match insn with
        | Insn.Pop Insn.RDI when h.gadget = None -> (
            match Oracle.disasm t (!addr + len) with
            | Ok (Some (Insn.Ret, _)) -> h.gadget <- Some !addr
            | Ok _ -> ()
            | Error _ -> h.faulted <- true)
        | _ -> ()));
    incr addr
  done

let harvest t ~seeds ~max_pages =
  let h =
    {
      gadget = None;
      call_targets = [];
      faulted = false;
      visited = Hashtbl.create 32;
      frontier = List.map Addr.page_base seeds;
    }
  in
  let pages = ref 0 in
  let rec go () =
    match h.frontier with
    | [] -> ()
    | _ when h.faulted || !pages >= max_pages -> ()
    | page :: rest ->
        h.frontier <- rest;
        if not (Hashtbl.mem h.visited page) then begin
          Hashtbl.replace h.visited page ();
          incr pages;
          scan_page t h page
        end;
        go ()
  in
  go ();
  h

let run ~reference:(r : Reference.t) ~target:t =
  match Oracle.to_serving t with
  | Error note -> Report.of_target ~notes:[ note ] t
  | Ok () -> (
      let values = Oracle.leak_at t ~addr:(Oracle.rsp t) ~words:512 in
      (* Value-range analysis: the code cluster seeds the page walk. *)
      let code_ptrs = Cluster.code_candidates (Cluster.analyze (Array.to_list values)) in
      if code_ptrs = [] then Report.of_target ~notes:[ "no leaked code pointers" ] t
      else
        let h = harvest t ~seeds:code_ptrs ~max_pages:16 in
        if h.faulted then
          (* Execute-only memory: the disclosure read crashed the process. *)
          Report.of_target ~notes:[ "text read faulted (XOM)" ] t
        else
          match h.gadget with
          | None -> Report.of_target ~notes:[ "no gadget discovered" ] t
          | Some gadget -> (
              (* PLT discovery: direct-call targets that decode to nothing
                 are PLT stubs. *)
              let plt_candidates =
                List.filter
                  (fun a ->
                    match Oracle.disasm t a with
                    | Ok None -> true
                    | Ok (Some _) | Error _ -> false)
                  (List.sort_uniq compare h.call_targets)
              in
              match plt_candidates with
              | [] -> Report.of_target ~notes:[ "no PLT discovered" ] t
              | lowest :: _ ->
                  let sensitive =
                    Payload.plt_addr_of ~base:(Addr.page_base lowest) "sensitive"
                  in
                  let filler = Payload.slice ~values ~from_off:r.buf_off ~upto_off:r.ra_off in
                  let chain =
                    Payload.le64 gadget
                    ^ Payload.le64 R2c_workloads.Vulnapp.marker
                    ^ Payload.le64 sensitive
                  in
                  Oracle.send t (filler ^ chain);
                  let (_ : Process.outcome) = Oracle.resume_to_end t in
                  Report.of_target t))
