open R2c_machine
module Rng = R2c_util.Rng
module Mvee = R2c_defenses.Mvee
module Obs = R2c_obs

type config = {
  workers : int;
  policy : Policy.t;
  seed : int;
  request_fuel : int;
  max_retries : int;
  requests_per_child : int;
  restart_cycles : int;
  rerandomize_cycles : int;
  arrival_cycles : int;
  inject : Inject.rates;
}

let default_config =
  {
    workers = 3;
    policy = Policy.Same_image;
    seed = 1;
    request_fuel = 2_000_000;
    max_retries = 2;
    requests_per_child = 0;
    restart_cycles = 600_000;
    rerandomize_cycles = 1_000_000;
    arrival_cycles = 40_000;
    inject = Inject.zero;
  }

(* A child's lifetime instruction budget, the downtime of a graceful
   recycle, and the detections at which a Reactive pool escalates. *)
let worker_fuel = 20_000_000
let spawn_cycles = 10_000
let detection_threshold = 2

type stats = {
  mutable served : int;
  mutable dropped : int;
  mutable shed : int;
  mutable retried : int;
  mutable crashes : int;
  mutable timeouts : int;
  mutable detections : int;
  mutable restarts : int;
  mutable recycles : int;
  mutable rerandomizations : int;
  mutable quarantines : int;
  mutable mvee_blocks : int;
  mutable recovery_cycles : int;
  mutable recoveries : int;
  mutable restores : int;
  mutable fallbacks : int;
  mutable first_detection : int option;
  mutable first_response : int option;
}

let fresh_stats () =
  {
    served = 0;
    dropped = 0;
    shed = 0;
    retried = 0;
    crashes = 0;
    timeouts = 0;
    detections = 0;
    restarts = 0;
    recycles = 0;
    rerandomizations = 0;
    quarantines = 0;
    mvee_blocks = 0;
    recovery_cycles = 0;
    recoveries = 0;
    restores = 0;
    fallbacks = 0;
    first_detection = None;
    first_response = None;
  }

type response =
  | Served of { cycles : int; lines : int }
  | Rejected of { reason : string; lines : int }
  | Dropped

type worker = {
  wid : int;
  inject : Inject.t option;
  backoff : Policy.Backoff_state.s;
  mutable proc : Process.t;
  mutable break_addr : int;
  mutable at_break : bool;
  mutable served_this_child : int;
  mutable down_until : int;
  mutable ring : Ring.t option;  (* post-mortem ring, when observed *)
}

type t = {
  cfg : config;
  build : seed:int -> Image.t;
  break_sym : string;
  rng : Rng.t;
  workers : worker array;
  stats : stats;
  mutable clock : int;
  mutable rr : int;
  mutable escalated : bool;
  mutable shut : bool;
  mutable mvee_images : Image.t list;
  mutable sensitive : (int * int) list;
  mutable snapshots : (Image.t * (Process.snapshot * Ring.t option)) list;
      (* at most one post-warmup snapshot per live image, with the
         capturing child's ring when observed *)
  obs : Obs.Sink.t option;
  request_cycles : Obs.Metrics.histogram option;  (* when observed *)
}

(* Post-mortems kept per run: only the last K crashes stay resident, so a
   chaos campaign with thousands of crashes stays bounded. *)

let ring_capacity = 32

let ev t f = match t.obs with None -> () | Some sink -> f sink

(* A fresh ring per child: records from a previous incarnation must not
   leak into the next crash's post-mortem. *)
let observe_worker t w =
  match t.obs with
  | None -> ()
  | Some _ ->
      let ring = Ring.create ~capacity:ring_capacity in
      w.ring <- Some ring;
      Ring.attach ring w.proc.Process.cpu

(* The registry reads the pool's own stats and clock, registered after
   the request-cycles histogram in the exposition's order. *)
let register_counts t (sink : Obs.Sink.t) =
  let m = sink.Obs.Sink.metrics and s = t.stats in
  let c name help read = Obs.Metrics.counter ~help m name read in
  Obs.Metrics.gauge ~help:"simulated pool clock (cycles)" m "pool_clock_cycles" (fun () ->
      float_of_int t.clock);
  c "pool_rerandomizations_total" "worker rerandomizations" (fun () -> s.rerandomizations);
  c "pool_restarts_total" "worker restarts" (fun () -> s.restarts);
  c "pool_timeouts_total" "request timeouts" (fun () -> s.timeouts);
  c "pool_detections_total" "crashes flagged as attack detections" (fun () -> s.detections);
  c "pool_crashes_total" "worker crashes" (fun () -> s.crashes);
  c "pool_dropped_total" "requests rejected or dropped" (fun () -> s.dropped);
  c "pool_served_total" "requests served" (fun () -> s.served);
  c "pool_requests_total" "requests submitted to the pool" (fun () -> s.served + s.dropped)

(* Snapshot the dying child's ring before the respawn path replaces its
   CPU; the tail also lands in the event timeline so a Chrome trace
   carries the post-mortem inline. *)
let capture_postmortem t w f =
  match (t.obs, w.ring) with
  | Some sink, Some ring ->
      let tail = Ring.pp_tail ring ~n:16 in
      Obs.Events.instant ~cat:"postmortem" ~tid:(w.wid + 1)
        ~args:
          [
            ("wid", string_of_int w.wid);
            ("fault", Fault.to_string f);
            ("tail", tail);
          ]
        sink.Obs.Sink.events ~name:"postmortem" ~ts:t.clock
  | _ -> ()

let break_addr_of img sym =
  match Image.find_symbol img sym with
  | Some a -> a
  | None -> invalid_arg ("Pool: no breakpoint symbol " ^ sym)

let create ?(cfg = default_config) ?obs ~build ~break_sym () =
  if cfg.workers <= 0 then invalid_arg "Pool.create: need at least one worker";
  let rng = Rng.create cfg.seed in
  (* All workers start as forks of one parent image — the pre-fork server
     model whose layout uniformity Blind ROP exploits. *)
  let img0 = build ~seed:cfg.seed in
  let break0 = break_addr_of img0 break_sym in
  let workers =
    Array.init cfg.workers (fun i ->
        let inject =
          if Inject.rates_active cfg.inject then
            Some (Inject.create ~rates:cfg.inject ~seed:((cfg.seed * 1009) + i) ())
          else None
        in
        {
          wid = i;
          inject;
          backoff =
            (match cfg.policy with
            | Policy.Backoff b ->
                Policy.Backoff_state.create ~cfg:b ~seed:((cfg.seed * 31) + i) ()
            | _ -> Policy.Backoff_state.create ~seed:((cfg.seed * 31) + i) ());
          proc = Process.start ?inject ~fuel:worker_fuel img0;
          break_addr = break0;
          at_break = false;
          served_this_child = 0;
          down_until = 0;
          ring = None;
        })
  in
  let t =
    {
      cfg;
      build;
      break_sym;
      rng;
      workers;
      stats = fresh_stats ();
      clock = 0;
      rr = 0;
      escalated = false;
      shut = false;
      mvee_images = [];
      sensitive = [];
      snapshots = [];
      obs;
      request_cycles =
        Option.map
          (fun (sink : Obs.Sink.t) ->
            Obs.Metrics.histogram ~help:"per-request service cycles" sink.Obs.Sink.metrics
              "pool_request_cycles")
          obs;
    }
  in
  Option.iter (register_counts t) obs;
  Array.iter (observe_worker t) workers;
  t

let fresh_seed t = Rng.int t.rng 0x3fff_ffff

let collect_sensitive t w = t.sensitive <- Process.sensitive_log w.proc @ t.sensitive

(* The worker's child dies and a fresh one takes its place on the same
   image: the dead child's privileged-call log is kept. *)
let respawn t w =
  collect_sensitive t w;
  Process.restart w.proc;
  observe_worker t w

let take_down ?(kind = "restart") t w delay =
  w.at_break <- false;
  w.served_this_child <- 0;
  w.down_until <- t.clock + delay;
  t.stats.recovery_cycles <- t.stats.recovery_cycles + delay;
  t.stats.recoveries <- t.stats.recoveries + 1;
  t.stats.restarts <- t.stats.restarts + 1;
  ev t (fun sink ->
      Obs.Events.complete ~cat:"respawn" ~tid:(w.wid + 1)
        ~args:[ ("kind", kind); ("wid", string_of_int w.wid) ]
        sink.Obs.Sink.events ~name:kind ~ts:t.clock ~dur:delay)

let rerandomize_worker t w =
  collect_sensitive t w;
  let img = t.build ~seed:(fresh_seed t) in
  w.proc <- Process.start ?inject:w.inject ~fuel:worker_fuel img;
  w.break_addr <- break_addr_of img t.break_sym;
  t.stats.rerandomizations <- t.stats.rerandomizations + 1;
  observe_worker t w;
  t.snapshots <-
    List.filter
      (fun (i, _) -> Array.exists (fun w -> w.proc.Process.image == i) t.workers)
      t.snapshots

(* How a crashed worker comes back, given the policy and the escalation
   state. *)
let respawn_mode t =
  match t.cfg.policy with
  | Policy.Same_image -> `Same
  | Policy.Rerandomize -> `Rerand
  | Policy.Backoff b -> `Backoff b
  | Policy.Reactive Policy.Escalate_rerandomize -> if t.escalated then `Rerand else `Same
  | Policy.Reactive (Policy.Escalate_mvee _) -> `Same

(* The reactive response: once monitoring has seen enough detections,
   either roll fresh layouts across the fleet (staggered, so capacity
   never drops to zero at once) or switch the service into MVEE
   lockstep. [crashed] is respawned by the crash path itself. *)
let maybe_escalate t ~crashed =
  match t.cfg.policy with
  | Policy.Reactive esc
    when (not t.escalated) && t.stats.detections >= detection_threshold ->
      t.escalated <- true;
      t.stats.first_response <- Some t.clock;
      ev t (fun sink ->
          let mode =
            match esc with
            | Policy.Escalate_rerandomize -> "rerandomize"
            | Policy.Escalate_mvee _ -> "mvee"
          in
          Obs.Events.instant ~cat:"escalation"
            ~args:[ ("mode", mode); ("detections", string_of_int t.stats.detections) ]
            sink.Obs.Sink.events ~name:"escalate" ~ts:t.clock);
      (match esc with
      | Policy.Escalate_rerandomize ->
          let k = ref 0 in
          Array.iter
            (fun w ->
              if w.wid <> crashed then begin
                rerandomize_worker t w;
                take_down ~kind:"rerandomize" t w (t.cfg.rerandomize_cycles * (!k + 1));
                incr k
              end)
            t.workers
      | Policy.Escalate_mvee { variants } ->
          t.mvee_images <-
            List.init (max 2 variants) (fun _ -> t.build ~seed:(fresh_seed t)))
  | _ -> ()

let handle_crash t w f =
  t.stats.crashes <- t.stats.crashes + 1;
  capture_postmortem t w f;
  ev t (fun sink ->
      Obs.Events.instant ~cat:"crash" ~tid:(w.wid + 1)
        ~args:[ ("fault", Fault.to_string f); ("wid", string_of_int w.wid) ]
        sink.Obs.Sink.events ~name:"crash" ~ts:t.clock);
  if Fault.is_detection f then begin
    t.stats.detections <- t.stats.detections + 1;
    if t.stats.first_detection = None then t.stats.first_detection <- Some t.clock;
    ev t (fun sink ->
        Obs.Events.instant ~cat:"detection" ~tid:(w.wid + 1)
          ~args:[ ("fault", Fault.to_string f); ("wid", string_of_int w.wid) ]
          sink.Obs.Sink.events ~name:"detection" ~ts:t.clock)
  end;
  maybe_escalate t ~crashed:w.wid;
  match respawn_mode t with
  | `Same ->
      respawn t w;
      take_down t w t.cfg.restart_cycles
  | `Rerand ->
      rerandomize_worker t w;
      take_down ~kind:"rerandomize" t w t.cfg.rerandomize_cycles
  | `Backoff _ ->
      respawn t w;
      let tripped = Policy.Backoff_state.record_crash w.backoff ~now:t.clock in
      if tripped then begin
        t.stats.quarantines <- t.stats.quarantines + 1;
        take_down ~kind:"quarantine" t w
          (Policy.Backoff_state.quarantined_until w.backoff - t.clock)
      end
      else
        take_down t w (t.cfg.restart_cycles + Policy.Backoff_state.next_delay w.backoff)

let handle_timeout t w =
  t.stats.timeouts <- t.stats.timeouts + 1;
  respawn t w;
  take_down t w t.cfg.restart_cycles

(* Graceful child rotation (MaxRequestsPerChild): a spare replaces the
   worker, cheaper than a crash respawn and without policy involvement. *)
let recycle t w =
  respawn t w;
  w.at_break <- false;
  w.served_this_child <- 0;
  w.down_until <- t.clock + spawn_cycles;
  t.stats.recycles <- t.stats.recycles + 1;
  ev t (fun sink ->
      Obs.Events.complete ~cat:"respawn" ~tid:(w.wid + 1)
        ~args:[ ("kind", "recycle"); ("wid", string_of_int w.wid) ]
        sink.Obs.Sink.events ~name:"recycle" ~ts:t.clock ~dur:spawn_cycles)

let pick_worker t ~skip =
  let n = Array.length t.workers in
  let rec go i =
    if i >= n then None
    else
      let idx = (t.rr + i) mod n in
      let w = t.workers.(idx) in
      if w.down_until <= t.clock && not (List.mem w.wid skip) then begin
        t.rr <- (idx + 1) mod n;
        Some w
      end
      else go (i + 1)
  in
  go 0

let charge_cycles t w cyc0 =
  let d = int_of_float (Process.cycles w.proc -. cyc0) in
  t.clock <- t.clock + d;
  d

let line_count s = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* Every warmup of a fresh child goes through here, the fork-after-init
   model: the child adopts its image's post-warmup snapshot when
   [Process.warm_until] proves re-running the warmup would change nothing,
   and runs it otherwise; the first quiet run of an image becomes the
   snapshot. A restored child gets a copy of the capturing child's ring,
   the records running the warmup would have left in its own. *)
let warm_up t w =
  let img = w.proc.Process.image in
  let snap = List.assq_opt img t.snapshots in
  let r =
    Process.warm_until ~fuel:t.cfg.request_fuel w.proc ~break:[ w.break_addr ]
      (Option.map fst snap)
  in
  (match (r, snap) with
  | `Restored, _ -> t.stats.restores <- t.stats.restores + 1
  | _, Some _ -> t.stats.fallbacks <- t.stats.fallbacks + 1
  | _, None -> ());
  match r with
  | `Restored ->
      (match (t.obs, snap) with
      | Some _, Some (_, Some ring) ->
          let ring = Ring.copy ring in
          w.ring <- Some ring;
          Ring.attach ring w.proc.Process.cpu
      | _ -> ());
      `Ready
  | `Hit captured ->
      Option.iter
        (fun s -> t.snapshots <- (img, (s, Option.map Ring.copy w.ring)) :: t.snapshots)
        captured;
      `Ready
  | `Done d -> `Done d

let serve_on t w payload =
  let cyc0 = Process.cycles w.proc in
  let warm =
    if w.at_break then `Ready
    else
      match warm_up t w with
      | `Ready ->
          w.at_break <- true;
          `Ready
      | `Done d -> `Done d
  in
  (* Response size is client-visible: [lines] is what the worker printed
     while handling this request (from after warmup up to — for a crash —
     the point of death). Blind ROP's stop-gadget test reads it. *)
  let lines0 = line_count (Process.output w.proc) in
  let lines () = line_count (Process.output w.proc) - lines0 in
  let fail_crash f =
    let l = lines () in
    ignore (charge_cycles t w cyc0);
    handle_crash t w f;
    `Fail ("crash: " ^ Fault.to_string f, l)
  in
  let fail_timeout () =
    let l = lines () in
    ignore (charge_cycles t w cyc0);
    handle_timeout t w;
    `Fail ("timeout", l)
  in
  match warm with
  | `Done (Process.Crashed f) -> fail_crash f
  | `Done Process.Timeout -> fail_timeout ()
  | `Done (Process.Exited _) ->
      ignore (charge_cycles t w cyc0);
      recycle t w;
      `Fail ("no serving point", 0)
  | `Ready ->
      Cpu.push_input w.proc.Process.cpu payload;
      (* The parked worker sits right after a [read_input] return; the
         request is fully handled only after TWO break-to-break advances:
         one to the read that consumes the payload, one through the
         handler and the enclosing return — where a smashed frame actually
         detonates (booby traps, hijacked returns). Stopping earlier would
         let corrupted state park unexercised. *)
      let advance () =
        match Process.resume ~fuel:t.cfg.request_fuel w.proc ~break:[ w.break_addr ] with
        | `Step_fault f | `Done (Process.Crashed f) -> `Fail_crash f
        | `Done Process.Timeout -> `Fail_timeout
        | `Done (Process.Exited _) -> `Exited
        | `Hit -> `Hit
      in
      let serve_done () =
        let l = lines () in
        let d = charge_cycles t w cyc0 in
        w.served_this_child <- w.served_this_child + 1;
        if
          t.cfg.requests_per_child > 0
          && w.served_this_child >= t.cfg.requests_per_child
        then recycle t w;
        `Ok (d, l)
      in
      let exited () =
        (* Natural end of the child's request loop: the request was
           served, then the worker rotated out. *)
        let l = lines () in
        let d = charge_cycles t w cyc0 in
        recycle t w;
        `Ok (d, l)
      in
      (match (advance (), lazy (advance ())) with
      | `Fail_crash f, _ -> fail_crash f
      | `Fail_timeout, _ -> fail_timeout ()
      | `Exited, _ -> exited ()
      | `Hit, (lazy (`Fail_crash f)) -> fail_crash f
      | `Hit, (lazy `Fail_timeout) -> fail_timeout ()
      | `Hit, (lazy `Exited) -> exited ()
      | `Hit, (lazy `Hit) -> serve_done ())

let serve_mvee t payload =
  let { Mvee.verdict; cycles } = Mvee.run_images ~images:t.mvee_images ~inputs:[ payload ] in
  t.clock <- t.clock + int_of_float cycles;
  match verdict with
  | Mvee.Consistent (Process.Exited _) ->
      t.stats.served <- t.stats.served + 1;
      Served { cycles = int_of_float cycles; lines = 0 }
  | Mvee.Consistent _ | Mvee.Divergence _ ->
      (* The lockstep monitor saw the variants disagree (or all die): the
         request is refused and no worker was harmed. *)
      t.stats.mvee_blocks <- t.stats.mvee_blocks + 1;
      t.stats.dropped <- t.stats.dropped + 1;
      Rejected { reason = "mvee: lockstep divergence"; lines = 0 }

(* Exactly one request span per [submit] — served, rejected or dropped —
   so a trace's request-span count always equals [served + dropped]. *)
let finish_request t ~ts0 resp =
  match t.obs with
  | None -> ()
  | Some sink ->
      let name, args =
        match resp with
        | Served { cycles; lines } ->
            ( "served",
              [
                ("outcome", "served");
                ("cycles", string_of_int cycles);
                ("lines", string_of_int lines);
              ] )
        | Rejected { reason; lines } ->
            ( "rejected",
              [
                ("outcome", "rejected");
                ("reason", reason);
                ("lines", string_of_int lines);
              ] )
        | Dropped -> ("dropped", [ ("outcome", "dropped") ])
      in
      Obs.Events.complete ~cat:"request" ~args sink.Obs.Sink.events ~name ~ts:ts0
        ~dur:(t.clock - ts0);
      match (t.request_cycles, resp) with
      | Some h, Served { cycles; _ } -> Obs.Metrics.observe h cycles
      | _ -> ()

let submit ?retries t payload =
  let max_retries = match retries with Some r -> r | None -> t.cfg.max_retries in
  t.clock <- t.clock + t.cfg.arrival_cycles;
  let ts0 = t.clock in
  let resp =
    if t.shut then begin
      (* Drained pool: admission is closed, the connection is refused
         without touching a worker. Counted like any other shed so the
         span invariant (request spans = served + dropped) holds. *)
      t.stats.dropped <- t.stats.dropped + 1;
      t.stats.shed <- t.stats.shed + 1;
      Dropped
    end
    else if t.mvee_images <> [] then serve_mvee t payload
    else
      let rec attempt n skip =
        match pick_worker t ~skip with
        | None ->
            (* Shed load: better a fast 503 than a connection queue that
               crash-loops the fleet. *)
            t.stats.dropped <- t.stats.dropped + 1;
            if n = 0 then t.stats.shed <- t.stats.shed + 1;
            Dropped
        | Some w -> (
            let ts_a = t.clock in
            let r = serve_on t w payload in
            ev t (fun sink ->
                let outcome =
                  match r with `Ok _ -> "ok" | `Fail (reason, _) -> reason
                in
                Obs.Events.complete ~cat:"attempt" ~tid:(w.wid + 1)
                  ~args:[ ("wid", string_of_int w.wid); ("outcome", outcome) ]
                  sink.Obs.Sink.events ~name:"serve" ~ts:ts_a ~dur:(t.clock - ts_a));
            match r with
            | `Ok (cycles, lines) ->
                t.stats.served <- t.stats.served + 1;
                Served { cycles; lines }
            | `Fail (reason, lines) ->
                if n < max_retries then begin
                  t.stats.retried <- t.stats.retried + 1;
                  attempt (n + 1) (w.wid :: skip)
                end
                else begin
                  t.stats.dropped <- t.stats.dropped + 1;
                  Rejected { reason; lines }
                end)
      in
      attempt 0 []
  in
  finish_request t ~ts0 resp;
  resp

let run t payloads = List.map (fun p -> submit t p) payloads

let stats t = t.stats
let clock t = t.clock

let inject_counters t =
  Array.to_list t.workers |> List.filter_map (fun w -> Option.map Inject.counters w.inject)

let escalated t = t.escalated
let is_shutdown t = t.shut

let advance_clock t now = if now > t.clock then t.clock <- now

(* Graceful drain. The serving model is synchronous — a request is fully
   handled (or fully failed) inside [submit] — so "let in-flight work
   finish" holds by construction once admission stops; what remains is to
   close out the observable lifecycle: one retirement span per worker
   covering its residual downtime (a worker abandoned mid-respawn would
   otherwise leave a dangling recovery in the timeline) and a [shutdown]
   instant. Idempotent; later [submit]s are refused as shed. *)
let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    (* No [collect_sensitive] here: the workers' final incarnations stay
       resident and [sensitive_log] already folds over live processes —
       collecting them into [t.sensitive] too would double-count. *)
    Array.iter
      (fun w ->
        ev t (fun sink ->
            let residual = max 0 (w.down_until - t.clock) in
            Obs.Events.complete ~cat:"respawn" ~tid:(w.wid + 1)
              ~args:
                [ ("kind", "retire"); ("wid", string_of_int w.wid);
                  ("residual_down", string_of_int residual) ]
              sink.Obs.Sink.events ~name:"retire" ~ts:t.clock ~dur:residual))
      t.workers;
    ev t (fun sink ->
        Obs.Events.instant ~cat:"lifecycle"
          ~args:
            [
              ("served", string_of_int t.stats.served);
              ("dropped", string_of_int t.stats.dropped);
              ("crashes", string_of_int t.stats.crashes);
              ("detections", string_of_int t.stats.detections);
            ]
          sink.Obs.Sink.events ~name:"shutdown" ~ts:t.clock)
  end

let sensitive_log t =
  Array.fold_left (fun acc w -> Process.sensitive_log w.proc @ acc) t.sensitive t.workers

let availability s =
  let total = s.served + s.dropped in
  if total = 0 then 1.0 else float_of_int s.served /. float_of_int total

let mttr s =
  if s.recoveries = 0 then None
  else Some (float_of_int s.recovery_cycles /. float_of_int s.recoveries)

let detection_to_response s =
  match (s.first_detection, s.first_response) with
  | Some d, Some r -> Some (r - d)
  | _ -> None
