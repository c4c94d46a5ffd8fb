type outcome = Exited of int | Crashed of Fault.t | Timeout

type t = {
  image : Image.t;
  profile : Cost.profile;
  fuel : int;
  strict_align : bool;
  inject : Inject.t option;
  jit : bool;
  jit_stats : Jit.stats option;
  mutable cpu : Cpu.t;
  mutable fuel_left : int;
  mutable detections : Fault.t list;
  mutable crashes : int;
  mutable restarts : int;
}

let start ?(profile = Cost.epyc_rome) ?(fuel = 50_000_000) ?(strict_align = false) ?inject
    ?jit image =
  (* The code cache belongs to the image and is built by its first run;
     the process only keeps its own counters, across respawns. *)
  let jit = (match jit with Some b -> b | None -> Jit.enabled ()) && Option.is_none inject in
  let jit_stats = if jit then Some (Jit.fresh_stats ()) else None in
  {
    image;
    profile;
    fuel;
    strict_align;
    inject;
    jit;
    jit_stats;
    cpu = Loader.load ~strict_align ?inject ~jit ?jit_stats ~profile image;
    fuel_left = fuel;
    detections = [];
    crashes = 0;
    restarts = 0;
  }

let record_fault t f =
  t.crashes <- t.crashes + 1;
  if Fault.is_detection f then t.detections <- f :: t.detections

(* Fuel is a per-lifetime budget consumed across run segments: a process
   stopped at a breakpoint and resumed does not get a fresh allowance. An
   optional per-segment cap on top of the remaining budget is the
   supervisor's request-timeout primitive. The injector may cut the budget
   further (the mid-request fuel-exhaustion chaos). *)
let segment_budget t cap =
  let b = match cap with Some f -> min f t.fuel_left | None -> t.fuel_left in
  match t.inject with Some inj -> Inject.cut_fuel inj b | None -> b

let consume t ~insns_before =
  t.fuel_left <- max 0 (t.fuel_left - (t.cpu.Cpu.insns - insns_before))

let run ?fuel t =
  let budget = segment_budget t fuel in
  let insns_before = t.cpu.Cpu.insns in
  let r = Cpu.run t.cpu ~fuel:budget in
  consume t ~insns_before;
  match r with
  | Cpu.Halted -> Exited t.cpu.Cpu.exit_code
  | Cpu.Fuel_exhausted -> Timeout
  | Cpu.Faulted f ->
      record_fault t f;
      Crashed f

let run_until ?fuel t ~break =
  let budget = segment_budget t fuel in
  let insns_before = t.cpu.Cpu.insns in
  let r = Cpu.run_until t.cpu ~fuel:budget ~break in
  consume t ~insns_before;
  match r with
  | Ok () -> `Hit
  | Error Cpu.Halted -> `Done (Exited t.cpu.Cpu.exit_code)
  | Error Cpu.Fuel_exhausted -> `Done Timeout
  | Error (Cpu.Faulted f) ->
      record_fault t f;
      `Done (Crashed f)

(* Stepping off the breakpoint happens outside both fuel budgets: the
   resumed segment is charged from the instruction after it. *)
let resume ?fuel t ~break =
  match if List.mem t.cpu.Cpu.rip break then Cpu.step t.cpu with
  | exception Fault.Fault f ->
      record_fault t f;
      `Step_fault f
  | () -> run_until ?fuel t ~break

(* A warmup's snapshot: the CPU frozen at the stop (never run, no
   injector), what the run left of the lifetime fuel, how many injector
   draws it made, and everything else the run depended on. *)
type snapshot = {
  s_cpu : Cpu.t;
  s_fuel_left : int;
  s_draws : int;
  s_fuel : int;
  s_cap : int option;
  s_rates : Inject.rates option;
}

let adopt t s ~cap =
  let c = s.s_cpu in
  c.Cpu.image == t.image
  && c.Cpu.profile = t.profile
  && c.Cpu.strict_align = t.strict_align
  && s.s_fuel = t.fuel && s.s_cap = cap
  && s.s_rates = Option.map Inject.rates t.inject
  && (match t.inject with Some inj -> Inject.skip_quiet inj ~draws:s.s_draws | None -> true)
  && begin
       t.cpu <- Loader.clone ?inject:t.inject ~jit:t.jit ?jit_stats:t.jit_stats c;
       t.fuel_left <- s.s_fuel_left;
       true
     end

let warm_until ?fuel t ~break snap =
  (* Nothing has run since the (re)start and no input is queued. *)
  let fresh = t.cpu.Cpu.insns = 0 && Queue.is_empty t.cpu.Cpu.input in
  match snap with
  | Some s when fresh && adopt t s ~cap:fuel -> `Restored
  | _ -> (
      let mark = Option.map (fun inj -> (Inject.counters inj, Inject.draws inj)) t.inject in
      match run_until ?fuel t ~break with
      | `Done d -> `Done d
      | `Hit ->
          let quiet, draws =
            match (t.inject, mark) with
            | Some inj, Some (c0, d0) -> (Inject.counters inj = c0, Inject.draws inj - d0)
            | _ -> (true, 0)
          in
          `Hit
            (if fresh && quiet && Option.is_none snap then
               Some
                 {
                   s_cpu = Cpu.clone t.cpu;
                   s_fuel_left = t.fuel_left;
                   s_draws = draws;
                   s_fuel = t.fuel;
                   s_cap = fuel;
                   s_rates = Option.map Inject.rates t.inject;
                 }
             else None))

let restart t =
  t.cpu <-
    Loader.load ~strict_align:t.strict_align ?inject:t.inject ~jit:t.jit
      ?jit_stats:t.jit_stats ~profile:t.profile t.image;
  (* A respawned worker gets the full fuel budget again, exactly as a
     [start]ed one does. *)
  t.fuel_left <- t.fuel;
  t.restarts <- t.restarts + 1

let outcome_to_string = function
  | Exited n -> Printf.sprintf "exited(%d)" n
  | Crashed f -> Printf.sprintf "crashed(%s)" (Fault.to_string f)
  | Timeout -> "timeout"

let cycles t = t.cpu.Cpu.cycles
let insns t = t.cpu.Cpu.insns
let calls t = t.cpu.Cpu.calls
let max_depth t = t.cpu.Cpu.max_depth
let icache_misses t = Icache.misses t.cpu.Cpu.icache
let icache_accesses t = Icache.accesses t.cpu.Cpu.icache
let fuel_left t = t.fuel_left
let maxrss_bytes t = Mem.max_mapped_pages t.cpu.Cpu.mem * Addr.page_size
let jit_stats t = t.jit_stats
let output t = Cpu.output t.cpu
let sensitive_log t = t.cpu.Cpu.sensitive_log
let detected t = t.detections <> []
