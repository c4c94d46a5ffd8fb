(* Post-warmup snapshots. A worker that adopts its image's snapshot must be
   in exactly the state running the warmup would have left it in — every
   CPU field, memory byte, heap, counter, fuel and injector RNG — and
   copy-on-write sharing must never let one process's writes reach the
   snapshot or a sibling. *)

open R2c_machine
module Dconfig = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
module Vulnapp = R2c_workloads.Vulnapp
module Fleetapp = R2c_workloads.Fleetapp
module Webserver = R2c_workloads.Webserver

(* A serving point: an image, where its workers park, and what continuing
   past it looks like. *)
type point = { img : Image.t; break : int; payload : string option }

let point img sym payload =
  match Image.find_symbol img sym with
  | Some break -> { img; break; payload }
  | None -> Alcotest.failf "no symbol %s" sym

let points_of cfg =
  [
    ("vulnapp", point (Vulnapp.build ~seed:3 cfg) Vulnapp.break_symbol (Some "GET /status"));
    ("fleetapp", point (Fleetapp.build ~seed:3 cfg) Fleetapp.break_symbol (Some "GET /item/7"));
    ( "webserver",
      point
        (Pipeline.compile ~seed:3 cfg (Webserver.server `Nginx ~requests:4))
        "ws_parse_request" None );
  ]

(* Every workload's serving point under every named config. *)
let all_points =
  lazy
    (List.concat_map
       (fun (c, cfg) -> List.map (fun (w, p) -> (w ^ "/" ^ c, p)) (points_of cfg))
       Dconfig.named)

(* Everything observable about a process, cycles as IEEE bits. *)
let fingerprint (p : Process.t) =
  let c = p.Process.cpu in
  let m = c.Cpu.mem in
  let pages =
    List.map
      (fun (base, perm, guard) ->
        let words = List.init (Addr.page_size / 8) (fun k -> Mem.peek_u64 m (base + (8 * k))) in
        (base, Perm.to_string perm, guard, words))
      (Mem.page_perms m)
  in
  let ic = c.Cpu.icache in
  let inj =
    match p.Process.inject with
    | Some i -> Some (Inject.counters i, Inject.draws i)
    | None -> None
  in
  ( ( pages,
      Mem.max_mapped_pages m,
      (Heap.brk c.Cpu.heap, Heap.live_bytes c.Cpu.heap),
      (Array.to_list c.Cpu.regs, Array.to_list c.Cpu.ymm),
      (c.Cpu.rip, c.Cpu.cmp_l, c.Cpu.cmp_r, Int64.bits_of_float c.Cpu.cycles) ),
    ( (c.Cpu.insns, c.Cpu.calls, c.Cpu.depth, c.Cpu.max_depth, c.Cpu.halted, c.Cpu.exit_code),
      (Array.to_list ic.Icache.tags, Icache.misses ic, Icache.accesses ic),
      (Cpu.output c, !(c.Cpu.shadow), c.Cpu.sensitive_log, List.of_seq (Queue.to_seq c.Cpu.input)),
      (p.Process.fuel_left, p.Process.crashes, p.Process.restarts),
      inj ) )

let same what a b =
  if fingerprint a <> fingerprint b then Alcotest.failf "%s: restored <> executed" what

(* Serve one request the way the pool does (two break-to-break advances)
   or, for a batch program, run on for a while. *)
let continue (pt : point) p =
  match pt.payload with
  | Some payload ->
      Cpu.push_input p.Process.cpu payload;
      for _ = 1 to 2 do
        if p.Process.cpu.Cpu.rip = pt.break then Cpu.step p.Process.cpu;
        ignore (Process.run_until ~fuel:200_000 p ~break:[ pt.break ])
      done
  | None -> ignore (Process.run ~fuel:5_000 p)

let rates r = { Inject.bitflip = r; load_corrupt = r; spurious_fault = r /. 2.0; fuel_cut = 0.0 }
let start ?inject pt = Process.start ?inject ~fuel:10_000_000 pt.img
let injector ~r seed = Inject.create ~rates:(rates r) ~seed ()

(* The snapshot of the first seed's warmup that is quiet. *)
let capture ?(r = 1e-7) pt =
  let rec go seed =
    if seed > 200 then Alcotest.fail "no quiet warmup in 200 seeds"
    else
      let p = start ~inject:(injector ~r seed) pt in
      match Process.warm_until ~fuel:1_000_000 p ~break:[ pt.break ] None with
      | `Hit (Some s) -> s
      | `Hit None | `Done _ -> go (seed + 1)
      | `Restored -> Alcotest.fail "restored without a snapshot"
  in
  go 0

(* Restored ≡ executed, at every serving point under every named config:
   right after the warmup, then after serving on. *)
let test_restored_is_executed () =
  List.iter
    (fun (name, pt) ->
      let snap = capture pt in
      let rec pair seed =
        if seed > 1100 then Alcotest.failf "%s: no restore in 100 seeds" name;
        let restored = start ~inject:(injector ~r:1e-7 seed) pt in
        match Process.warm_until ~fuel:1_000_000 restored ~break:[ pt.break ] (Some snap) with
        | `Restored -> (restored, seed)
        | _ -> pair (seed + 1)
      in
      let restored, seed = pair 1000 in
      let executed = start ~inject:(injector ~r:1e-7 seed) pt in
      (match Process.run_until ~fuel:1_000_000 executed ~break:[ pt.break ] with
      | `Hit -> ()
      | `Done o -> Alcotest.failf "%s: warmup %s" name (Process.outcome_to_string o));
      same (name ^ " at the break") restored executed;
      continue pt restored;
      continue pt executed;
      same (name ^ " after serving") restored executed)
    (Lazy.force all_points)

(* With the JIT's code cache in play and no injector: a restore arms tier 3
   as a fresh load does. *)
let test_restored_uninjected () =
  List.iter
    (fun (name, pt) ->
      let fresh () = Process.start ~fuel:10_000_000 pt.img in
      let snap =
        match Process.warm_until (fresh ()) ~break:[ pt.break ] None with
        | `Hit (Some s) -> s
        | _ -> Alcotest.failf "%s: no snapshot" name
      in
      let restored = fresh () and executed = fresh () in
      (match Process.warm_until restored ~break:[ pt.break ] (Some snap) with
      | `Restored -> ()
      | _ -> Alcotest.failf "%s: not restored" name);
      ignore (Process.run_until executed ~break:[ pt.break ]);
      same name restored executed;
      Alcotest.(check bool) (name ^ ": tier 3 armed") true
        (Option.is_some restored.Process.cpu.Cpu.tier3);
      for _ = 1 to 3 do
        continue pt restored;
        continue pt executed
      done;
      same (name ^ " after serving") restored executed)
    (points_of Dconfig.full_checked)

(* Chaos points under heavier rates: the injector fires during serving, so
   the RNG state a restore leaves is checked by what it draws next. *)
let test_restored_rng_under_chaos () =
  let _, pt = List.hd (points_of Dconfig.full_checked) in
  let r = 2e-5 in
  let snap = capture ~r pt in
  let restores = ref 0 and fired = ref 0 in
  for seed = 0 to 39 do
    let restored = start ~inject:(injector ~r seed) pt in
    match Process.warm_until ~fuel:1_000_000 restored ~break:[ pt.break ] (Some snap) with
    | `Restored ->
        incr restores;
        let executed = start ~inject:(injector ~r seed) pt in
        ignore (Process.run_until ~fuel:1_000_000 executed ~break:[ pt.break ]);
        same "at the break" restored executed;
        for _ = 1 to 30 do
          continue pt restored;
          continue pt executed
        done;
        same "after serving" restored executed;
        let c = Inject.counters (Option.get restored.Process.inject) in
        if c.Inject.bitflips + c.load_corruptions + c.spurious_faults > 0 then incr fired
    | _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "restores happened (%d/40)" !restores) true (!restores > 5);
  Alcotest.(check bool)
    (Printf.sprintf "injections fired after restores (%d)" !fired)
    true (!fired > 0)

(* Forced fallback: a draw below the rate within the replayed window. The
   warmup runs for real from an untouched RNG — exactly as with no
   snapshot at all. *)
let test_fallback_on_low_draw () =
  let _, pt = List.hd (points_of Dconfig.full_checked) in
  let r = 2e-5 in
  let snap = capture ~r pt in
  let rec find seed =
    if seed > 300 then Alcotest.fail "no failing check in 300 seeds"
    else
      let a = start ~inject:(injector ~r seed) pt in
      match Process.warm_until ~fuel:1_000_000 a ~break:[ pt.break ] (Some snap) with
      | `Restored -> find (seed + 1)
      | outcome -> (a, seed, outcome)
  in
  let fell_back, seed, outcome = find 0 in
  (match outcome with
  | `Hit (Some _) -> Alcotest.fail "captured although a snapshot was given"
  | _ -> ());
  let executed = start ~inject:(injector ~r seed) pt in
  (match (outcome, Process.warm_until ~fuel:1_000_000 executed ~break:[ pt.break ] None) with
  | `Hit _, `Hit _ | `Done _, `Done _ -> ()
  | _ -> Alcotest.fail "fallback and executed warmup ended differently");
  same "fallback" fell_back executed

(* Forced fallback: a warmup that fired is never captured. *)
let test_no_capture_when_fired () =
  let _, pt = List.hd (points_of Dconfig.full_checked) in
  let flips = { Inject.zero with Inject.bitflip = 5e-4 } in
  let rec go seed =
    if seed > 100 then Alcotest.fail "no warmup survived a bit flip in 100 seeds"
    else
      let inj = Inject.create ~rates:flips ~seed () in
      match Process.warm_until ~fuel:1_000_000 (start ~inject:inj pt) ~break:[ pt.break ] None with
      | `Hit captured when (Inject.counters inj).Inject.bitflips > 0 ->
          Alcotest.(check bool) "no snapshot of a warmup that fired" true (Option.is_none captured)
      | _ -> go (seed + 1)
  in
  go 0

(* A mismatched process never adopts: another image, another fuel cap,
   another injector, or a process that already ran. *)
let test_adopt_preconditions () =
  let pts = points_of Dconfig.full_checked in
  let _, pt = List.hd pts and _, other = List.nth pts 1 in
  let snap = capture pt in
  let refused what p ?(fuel = 1_000_000) brk =
    match Process.warm_until ~fuel p ~break:[ brk ] (Some snap) with
    | `Restored -> Alcotest.failf "%s: adopted" what
    | _ -> ()
  in
  refused "other image" (Process.start ~inject:(injector ~r:1e-7 1) ~fuel:10_000_000 other.img)
    other.break;
  refused "other cap" (start ~inject:(injector ~r:1e-7 1) pt) ~fuel:900_000 pt.break;
  refused "no injector" (start pt) pt.break;
  refused "other rates" (start ~inject:(injector ~r:2e-7 1) pt) pt.break;
  let ran = start ~inject:(injector ~r:1e-7 1) pt in
  ignore (Process.run ~fuel:3 ran);
  refused "already ran" ran pt.break

(* An observed child: the ring a restore carries over plus what serving
   appends equals the ring an executed warmup leaves. *)
let test_ring_restored () =
  let _, pt = List.hd (points_of Dconfig.full_checked) in
  let ringed () =
    let p = start pt and ring = Ring.create ~capacity:32 in
    Ring.attach ring p.Process.cpu;
    (p, ring)
  in
  let first, first_ring = ringed () in
  let snap, snap_ring =
    match Process.warm_until first ~break:[ pt.break ] None with
    | `Hit (Some s) -> (s, Ring.copy first_ring)
    | _ -> Alcotest.fail "no snapshot"
  in
  let restored, _ = ringed () in
  (match Process.warm_until restored ~break:[ pt.break ] (Some snap) with
  | `Restored -> ()
  | _ -> Alcotest.fail "not restored");
  let restored_ring = Ring.copy snap_ring in
  Ring.attach restored_ring restored.Process.cpu;
  let executed, executed_ring = ringed () in
  ignore (Process.run_until executed ~break:[ pt.break ]);
  Alcotest.(check bool) "ring at the break" true
    (Test_obs.ring_lines restored_ring = Test_obs.ring_lines executed_ring);
  Alcotest.(check bool) "ring is full" true (List.length (Test_obs.ring_lines executed_ring) = 32);
  continue pt restored;
  continue pt executed;
  Alcotest.(check bool) "ring after serving" true
    (Test_obs.ring_lines restored_ring = Test_obs.ring_lines executed_ring);
  same "state" restored executed

(* Copy-on-write isolation between a snapshot and the processes restored
   from it: checked writes, blits, pokes and bit flips in one restored
   worker reach neither the snapshot (a later restore) nor a sibling. *)
let test_cow_isolation () =
  let _, pt = List.hd (points_of Dconfig.full_checked) in
  let fresh () = Process.start ~fuel:10_000_000 pt.img in
  let snap =
    match Process.warm_until (fresh ()) ~break:[ pt.break ] None with
    | `Hit (Some s) -> s
    | _ -> Alcotest.fail "no snapshot"
  in
  let restore () =
    let p = fresh () in
    (match Process.warm_until p ~break:[ pt.break ] (Some snap) with
    | `Restored -> ()
    | _ -> Alcotest.fail "not restored");
    p
  in
  let a = restore () and sibling = restore () in
  let before = fingerprint sibling in
  let m = a.Process.cpu.Cpu.mem in
  let rsp = Cpu.reg_get a.Process.cpu RSP in
  let pages_before = Mem.max_mapped_pages m in
  Mem.write_u64 m rsp 0x1122334455667788;
  Mem.write_u8 m (rsp + 9) 0xab;
  Mem.blit_string m (rsp - 5000) (String.make 4500 'x');
  (match Mem.writable_page_addrs m with
  | [] -> Alcotest.fail "no writable pages"
  | pages ->
      List.iter
        (fun base ->
          (* A straddling poke where the next page is writable too. *)
          let off = if List.mem (base + Addr.page_size) pages then 4092 else 4000 in
          Mem.poke_u64 m (base + off) (-1);
          Mem.flip_bit m ~addr:(base + 100) ~bit:3)
        pages);
  let text = pt.img.Image.text_base in
  Mem.poke_u64 m text 0x5a5a5a5a;
  Alcotest.(check int) "writes land" 0x1122334455667788 (Mem.read_u64 m rsp);
  Alcotest.(check bool) "sibling untouched" true (fingerprint sibling = before);
  Alcotest.(check bool) "snapshot untouched" true (fingerprint (restore ()) = before);
  Alcotest.(check int) "max_mapped_pages unchanged by sharing" pages_before
    (Mem.max_mapped_pages m);
  (* Pages nobody wrote read zero: the sibling's stack floor, and pages the
     heap maps now. *)
  let stack_floor =
    Addr.stack_top - Addr.align_up pt.img.Image.stack_bytes ~align:Addr.page_size
  in
  let heap = Heap.malloc_pages a.Process.cpu.Cpu.heap 3 in
  List.iter
    (fun (p, base, pages) ->
      for k = 0 to (pages * Addr.page_size / 8) - 1 do
        if Mem.read_u64 p.Process.cpu.Cpu.mem (base + (8 * k)) <> 0 then
          Alcotest.failf "unwritten page 0x%x not zero" base
      done)
    [ (sibling, stack_floor, 1); (a, heap, 3) ]

(* Text pages are sealed non-writable under every named config — so the
   bit-flip injector never targets them and copy-on-write text is never
   written — after loading, after the warmup and after a restore. *)
let test_text_never_writable () =
  List.iter
    (fun (name, pt) ->
      let img = pt.img in
      let text_end = img.Image.text_base + max img.Image.text_len Addr.page_size in
      let check what p =
        let m = p.Process.cpu.Cpu.mem in
        List.iter
          (fun (base, perm, _) ->
            if base >= img.Image.text_base && base < text_end && perm.Perm.write then
              Alcotest.failf "%s %s: text page 0x%x writable" name what base)
          (Mem.page_perms m);
        List.iter
          (fun base ->
            if base >= img.Image.text_base && base < text_end then
              Alcotest.failf "%s %s: text page 0x%x a flip target" name what base)
          (Mem.writable_page_addrs m)
      in
      let p = Process.start img in
      check "loaded" p;
      match Process.warm_until ~fuel:1_000_000 p ~break:[ pt.break ] None with
      | `Hit (Some snap) ->
          check "warm" p;
          let q = Process.start img in
          (match Process.warm_until ~fuel:1_000_000 q ~break:[ pt.break ] (Some snap) with
          | `Restored -> check "restored" q
          | _ -> Alcotest.failf "%s: not restored" name)
      | _ -> Alcotest.failf "%s: warmup did not reach the serving point" name)
    (Lazy.force all_points)

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "restored = executed, all configs" `Quick test_restored_is_executed;
        Alcotest.test_case "restored = executed, no injector" `Quick test_restored_uninjected;
        Alcotest.test_case "restored RNG under chaos" `Quick test_restored_rng_under_chaos;
        Alcotest.test_case "fallback on a low draw" `Quick test_fallback_on_low_draw;
        Alcotest.test_case "no capture when fired" `Quick test_no_capture_when_fired;
        Alcotest.test_case "adopt preconditions" `Quick test_adopt_preconditions;
        Alcotest.test_case "ring restored" `Quick test_ring_restored;
        Alcotest.test_case "copy-on-write isolation" `Quick test_cow_isolation;
        Alcotest.test_case "text never writable, all configs" `Quick test_text_never_writable;
      ] );
  ]
