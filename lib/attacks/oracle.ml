open R2c_machine

type t = {
  mutable img : Image.t;
  mutable proc : Process.t;
  relink : (unit -> Image.t) option;
  mutable break_addr : int;
  mutable dead : bool;
  (* What the processes a relink replaced saw, carried forward. *)
  mutable sensitive_acc : (int * int) list;  (* also across restarts *)
  mutable crashes_acc : int;
  mutable detections_acc : int;
}

module Vulnapp = R2c_workloads.Vulnapp

let break_addr_of img =
  match Image.find_symbol img Vulnapp.break_symbol with
  | Some a -> a
  | None -> invalid_arg ("Oracle.attach: no breakpoint symbol " ^ Vulnapp.break_symbol)

let attach ?relink img =
  {
    img;
    proc = Process.start img;
    relink;
    break_addr = break_addr_of img;
    dead = false;
    sensitive_acc = [];
    crashes_acc = 0;
    detections_acc = 0;
  }

let proc t = t.proc
let crashes t = t.crashes_acc + t.proc.Process.crashes
let detections t = t.detections_acc + List.length t.proc.Process.detections
let detected t = detections t > 0

(* Every outcome ends the process: it exited, crashed or timed out. *)
let ended t o =
  t.dead <- true;
  `Done o

let to_break t =
  if t.dead then invalid_arg "Oracle.to_break: process dead (restart first)";
  match Process.run_until t.proc ~break:[ t.break_addr ] with
  | `Hit -> `Break
  | `Done o -> ended t o

let rsp t = Cpu.reg_get t.proc.Process.cpu RSP

let leak_at t ~addr ~words =
  let mem = t.proc.Process.cpu.Cpu.mem in
  Array.init words (fun i ->
      match Mem.peek_u64 mem (addr + (8 * i)) with Some v -> v | None -> 0)

(* A faulting corruption primitive kills the worker; booby traps and guard
   pages additionally raise the monitoring alarm. *)
let killed t f =
  Process.record_fault t.proc f;
  t.dead <- true;
  Error f

(* Malicious Thread Blocking can freeze the victim at an arbitrary
   instruction; [to_symbol] positions the block at a named point and
   [step] advances by exactly one instruction (the race-window probe). *)
let to_symbol t sym =
  if t.dead then invalid_arg "Oracle.to_symbol: process dead";
  match Image.find_symbol t.img sym with
  | None -> invalid_arg ("Oracle.to_symbol: unknown symbol " ^ sym)
  | Some addr -> (
      match Process.resume t.proc ~break:[ addr ] with
      | `Hit -> `Break
      | `Done o -> ended t o
      | `Step_fault f -> ended t (Process.Crashed f))

let step t =
  if t.dead then invalid_arg "Oracle.step: process dead";
  match Cpu.step t.proc.Process.cpu with
  | () -> Ok ()
  | exception Fault.Fault f -> killed t f

let arb_read t addr =
  match Mem.read_u64 t.proc.Process.cpu.Cpu.mem addr with
  | v -> Ok v
  | exception Fault.Fault f -> killed t f

let arb_write t addr v =
  match Mem.write_u64 t.proc.Process.cpu.Cpu.mem addr v with
  | () -> Ok ()
  | exception Fault.Fault f -> killed t f

let disasm t addr =
  match Mem.read_u8 t.proc.Process.cpu.Cpu.mem addr with
  | _ -> Ok (Image.code_at t.img addr)
  | exception Fault.Fault f -> killed t f

(* Swap in a freshly re-randomized instance (TASR model), preserving the
   monitor's view (crashes, detections) and the attack-success log. *)
let relink_swap t f =
  t.sensitive_acc <- Process.sensitive_log t.proc @ t.sensitive_acc;
  t.crashes_acc <- crashes t;
  t.detections_acc <- detections t;
  let img = f () in
  t.img <- img;
  t.break_addr <- break_addr_of img;
  t.proc <- Process.start img;
  t.dead <- false

let send t payload =
  (* Under live re-randomization, the response/request round trip that
     delivers the payload crosses an I/O boundary: the layout the attacker
     observed is gone (TASR's defensive property). *)
  (match t.relink with Some f -> relink_swap t f | None -> ());
  Cpu.push_input t.proc.Process.cpu payload

let resume_to_end t =
  if t.dead then invalid_arg "Oracle.resume_to_end: process dead";
  let o = Process.run t.proc in
  t.dead <- true;
  o

let resume_to_break t =
  if t.dead then invalid_arg "Oracle.resume_to_break: process dead";
  match Process.resume t.proc ~break:[ t.break_addr ] with
  | `Hit -> `Break
  | `Done o -> ended t o
  | `Step_fault f -> ended t (Process.Crashed f)

let to_serving t =
  let never what o = Error (what ^ ": " ^ Process.outcome_to_string o) in
  match to_break t with
  | `Done o -> never "no breakpoint" o
  | `Break -> (
      match resume_to_break t with
      | `Break -> Ok ()
      | `Done o -> never "second request never reached" o)

let restart t =
  (match t.relink with
  | Some f -> relink_swap t f
  | None ->
      t.sensitive_acc <- Process.sensitive_log t.proc @ t.sensitive_acc;
      Process.restart t.proc);
  t.dead <- false

let sensitive_log t = Process.sensitive_log t.proc @ t.sensitive_acc

let compromised t = List.exists (fun (rdi, _) -> rdi = Vulnapp.marker) (sensitive_log t)

(* One probe: respawn, reach the serving state, deliver the payload, run to
   the end. Once the monitor has tripped the service answers no one — the
   reactive response of Section 4.1 belongs to the victim, not the attack. *)
let victim t =
  let probe payload =
    if detected t then Victim.Refused
    else begin
      if t.dead then restart t;
      match to_break t with
      | `Done _ -> Victim.Refused
      | `Break -> (
          send t payload;
          let o = resume_to_end t in
          let out = Process.output t.proc in
          let lines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 out in
          match o with
          | Process.Exited _ -> Victim.Served lines
          | Process.Crashed _ | Process.Timeout -> Victim.Died lines)
    end
  in
  { Victim.probe; compromised = (fun () -> compromised t) }
