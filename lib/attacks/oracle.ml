open R2c_machine

type t = {
  mutable img : Image.t;
  mutable proc : Process.t;
  restart_allowed : bool;
  relink : (unit -> Image.t) option;
  break_sym : string;
  mutable break_addr : int;
  mutable interactions : int;
  mutable dead : bool;
  mutable sensitive_acc : (int * int) list;  (* carried across restarts *)
}

let break_addr_of img break_sym =
  match Image.find_symbol img break_sym with
  | Some a -> a
  | None -> invalid_arg ("Oracle.attach: no breakpoint symbol " ^ break_sym)

let attach ?(restart_allowed = true) ?relink ~break_sym img =
  {
    img;
    proc = Process.start img;
    restart_allowed;
    relink;
    break_sym;
    break_addr = break_addr_of img break_sym;
    interactions = 0;
    dead = false;
    sensitive_acc = [];
  }

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

let leak_stack t ~words =
  let base = rsp t in
  let mem = t.proc.Process.cpu.Cpu.mem in
  let values =
    Array.init words (fun i ->
        match Mem.peek_u64 mem (base + (8 * i)) with Some v -> v | None -> 0)
  in
  (base, values)

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
      | `Step_fault _ -> ended t (Process.Crashed (Fault.Segv { addr; access = Fault.Exec })))

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
  let crashes = t.proc.Process.crashes in
  let detections = t.proc.Process.detections in
  let img = f () in
  let proc = Process.start img in
  proc.Process.crashes <- crashes;
  proc.Process.detections <- detections;
  t.img <- img;
  t.break_addr <- break_addr_of img t.break_sym;
  t.proc <- proc;
  t.dead <- false

let send t payload =
  t.interactions <- t.interactions + 1;
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

let restart t =
  if not t.restart_allowed then false
  else begin
    (match t.relink with
    | Some f -> relink_swap t f
    | None ->
        t.sensitive_acc <- Process.sensitive_log t.proc @ t.sensitive_acc;
        Process.restart t.proc);
    t.dead <- false;
    true
  end

let sensitive_log t = Process.sensitive_log t.proc @ t.sensitive_acc

let detected t = Process.detected t.proc

let crashes t = t.proc.Process.crashes

let detections t = List.length t.proc.Process.detections
