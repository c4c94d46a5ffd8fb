(* Observability layer: JSON printer/parser, metrics histograms, the trace
   ring under the observer hook, profiler attribution, zero-cost-when-off,
   and the pool timeline's span invariant. *)

open R2c_machine
module Obs = R2c_obs
module Json = R2c_obs.Json
module Metrics = R2c_obs.Metrics
module Events = R2c_obs.Events
module Profile = R2c_obs.Profile
module Measure = R2c_harness.Measure
module Prof = R2c_harness.Prof

(* A ring's records, oldest first, one rendered line each. *)
let ring_lines r = List.filter (( <> ) "") (String.split_on_char '\n' (Ring.pp_tail r ~n:max_int))

(* The events of a JSONL timeline ({!Events.to_jsonl}), parsed. *)
let jsonl_events s =
  List.filter_map
    (fun line ->
      if line = "" then None
      else match Json.parse line with Ok e -> Some e | Error e -> Alcotest.fail ("jsonl line: " ^ e))
    (String.split_on_char '\n' s)

(* --- JSON --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Str "line\nbreak \"quoted\" \x01");
        ("c", Json.Arr [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check string) "roundtrip" (Json.to_string v) (Json.to_string v')
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)

let test_json_rejects_garbage () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ s)
      | Error _ -> ())
    bad

(* --- metrics --- *)

(* The value of series [name] in [m]'s exposition. *)
let exposed m name =
  let prefix = name ^ " " in
  let lines = String.split_on_char '\n' (Metrics.expose m) in
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some line -> float_of_string (Scanf.sscanf line "%_s %s" Fun.id)
  | None -> Alcotest.failf "no series %s" name

(* The upper bound of the bucket a lone sample [v] lands in. *)
let bound_of v =
  let h = Metrics.histogram (Metrics.create ()) "h" in
  Metrics.observe h v;
  Metrics.percentile h 100.0

let test_bucket_boundaries () =
  (* bucket 0 holds v <= 1; bucket i >= 1 holds (2^(i-1), 2^i]. *)
  List.iter
    (fun (v, b) -> Alcotest.(check int) (Printf.sprintf "bucket of %d" v) (1 lsl b) (bound_of v))
    [ (0, 0); (1, 0); (2, 1); (3, 2); (4, 2); (5, 3); (8, 3); (9, 4); (1024, 10); (1025, 11) ];
  List.iter
    (fun i ->
      (* boundary values land in their own bucket, one past spills over *)
      Alcotest.(check int) "on boundary" (1 lsl i) (bound_of (1 lsl i));
      Alcotest.(check int) "past boundary" (1 lsl (i + 1)) (bound_of ((1 lsl i) + 1)))
    [ 1; 2; 5; 10; 20 ]

let test_percentile () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  Alcotest.(check int) "empty" 0 (Metrics.percentile h 50.0);
  List.iter (Metrics.observe h) [ 1; 2; 4; 8 ];
  (* nearest-rank over buckets: ranks 1..4 sit in buckets 0,1,2,3 *)
  Alcotest.(check int) "p25" 1 (Metrics.percentile h 25.0);
  Alcotest.(check int) "p50" 2 (Metrics.percentile h 50.0);
  Alcotest.(check int) "p75" 4 (Metrics.percentile h 75.0);
  Alcotest.(check int) "p100" 8 (Metrics.percentile h 100.0);
  Alcotest.(check (float 0.0)) "count" 4.0 (exposed m "lat_count");
  Alcotest.(check (float 0.001)) "sum" 15.0 (exposed m "lat_sum")

let test_registry_exposition () =
  let m = Metrics.create () in
  let reqs = ref 3 in
  Metrics.counter ~help:"requests" m "reqs_total" (fun () -> !reqs);
  Metrics.gauge m "depth" (fun () -> 2.5);
  let h = Metrics.histogram m "sizes" in
  Metrics.observe h 3;
  let contains text needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  let text = Metrics.expose m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true (contains text needle))
    [ "# TYPE reqs_total counter"; "reqs_total 3"; "depth 2.5"; "sizes_count 1" ];
  (* Counters read through at render time. *)
  reqs := 4;
  Alcotest.(check bool) "read at render" true (contains (Metrics.expose m) "reqs_total 4");
  (* Idempotent re-registration: a counter reads through its newest
     function under its first help, a histogram keeps its samples, and a
     kind mismatch is rejected. *)
  Metrics.counter ~help:"ignored" m "reqs_total" (fun () -> !reqs + 1);
  Alcotest.(check (float 0.0)) "re-registered" 5.0 (exposed m "reqs_total");
  Metrics.observe (Metrics.histogram m "sizes") 5;
  Alcotest.(check (float 0.0)) "histogram re-registered" 2.0 (exposed m "sizes_count");
  let head = "# HELP reqs_total requests\n# TYPE reqs_total counter\nreqs_total 5\n# TYPE depth gauge\n" in
  Alcotest.(check string) "one series each, help kept" head
    (String.sub (Metrics.expose m) 0 (String.length head));
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.gauge: reqs_total registered as another kind")
    (fun () -> Metrics.gauge m "reqs_total" (fun () -> 0.0))

(* --- trace ring via the observer hook --- *)

let traced_records ~capacity img =
  let p = Process.start img in
  let ring = Ring.create ~capacity in
  Ring.attach ring p.Process.cpu;
  match Process.run p with
  | Process.Exited 0 -> (ring_lines ring, Process.insns p)
  | o -> Alcotest.fail ("run failed: " ^ Process.outcome_to_string o)

let test_ring_wraparound_exact_capacity () =
  let img = R2c_compiler.Driver.compile (Samples.loop_prog 4) in
  let all, insns = traced_records ~capacity:1_000_000 img in
  Alcotest.(check int) "hook saw every insn" insns (List.length all);
  (* capacity == records written: nothing dropped, order intact *)
  let exact, _ = traced_records ~capacity:insns img in
  Alcotest.(check int) "exact capacity keeps all" insns (List.length exact);
  Alcotest.(check bool) "same records" true (exact = all);
  (* one below capacity: exactly the oldest record falls off *)
  let short, _ = traced_records ~capacity:(insns - 1) img in
  Alcotest.(check int) "one dropped" (insns - 1) (List.length short);
  Alcotest.(check bool) "tail preserved" true (short = List.tl all)

(* --- profiler attribution --- *)

let test_profiler_two_functions () =
  let profile = Cost.epyc_rome in
  let img = R2c_compiler.Driver.compile (Samples.fib_prog 10) in
  let pr = Profile.create ~profile img in
  let p = Process.start ~profile img in
  Profile.attach pr p.Process.cpu;
  (match Process.run p with
  | Process.Exited 0 -> ()
  | o -> Alcotest.fail (Process.outcome_to_string o));
  let rows = Profile.rows pr in
  let row name =
    match List.find_opt (fun (r : Profile.row) -> r.Profile.name = name) rows with
    | Some r -> r
    | None -> Alcotest.fail ("no profile row for " ^ name)
  in
  let fib = row "fib" and main = row "main" in
  Alcotest.(check bool) "fib hot" true (fib.Profile.cycles > main.Profile.cycles);
  (* exact call attribution: main calls fib once; every other fib entry is
     the recursion. fib(10) makes 177 calls in total. *)
  let edges =
    let lines = String.split_on_char '\n' (Profile.report ~top:max_int pr) in
    let rec after = function "hot call edges:" :: rest -> rest | _ :: rest -> after rest | [] -> [] in
    List.filter_map
      (fun l -> try Some (Scanf.sscanf l " %s -> %s %d" (fun a b n -> (a, b, n))) with _ -> None)
      (after lines)
  in
  let edge a b =
    match List.find_opt (fun (x, y, _) -> x = a && y = b) edges with Some (_, _, n) -> n | None -> 0
  in
  Alcotest.(check int) "main->fib edge" 1 (edge "main" "fib");
  Alcotest.(check int) "fib calls" 177 fib.Profile.calls;
  Alcotest.(check int) "fib->fib edge" 176 (edge "fib" "fib");
  (* column sums reproduce the CPU's own counters *)
  let t = Profile.total pr in
  Alcotest.(check int) "insns sum" (Process.insns p) t.Profile.insns;
  Alcotest.(check int) "miss sum" (Process.icache_misses p) t.Profile.misses;
  let cpu_cycles = Process.cycles p in
  Alcotest.(check bool)
    (Printf.sprintf "cycles sum (%.1f vs %.1f)" t.Profile.cycles cpu_cycles)
    true
    (abs_float (t.Profile.cycles -. cpu_cycles) /. cpu_cycles < 0.001);
  (* the split is additive per row *)
  List.iter
    (fun (r : Profile.row) ->
      Alcotest.(check bool)
        (r.Profile.name ^ " split additive")
        true
        (r.Profile.callsite_cycles +. r.Profile.prologue_cycles
         +. r.Profile.icache_cycles
        <= r.Profile.cycles +. 1e-6))
    rows

let test_profiler_diversified_sums () =
  let r = Prof.run ~seed:5 ~workload:"mcf" () in
  Alcotest.(check bool) "sums within 1% on both sides" true (Prof.sums_ok r);
  (* diversification must show up in the split: BTRA setup at call sites
     and trap-padded prologues cost cycles the baseline doesn't pay *)
  let tot = Profile.total r.Prof.r2c.Prof.prof in
  Alcotest.(check bool) "callsite overhead attributed" true (tot.Profile.callsite_cycles > 0.0);
  Alcotest.(check bool) "prologue overhead attributed" true (tot.Profile.prologue_cycles > 0.0)

(* An independent attribution: a plain observer classifying every step
   from the image's own tables — the covering function by
   [Image.func_of_addr], the prologue by its [.Lprolog] symbol, the
   instruction by [Image.code_at] — and summing in step order reproduces
   the profiler's rows bit for bit, on the reference tier and on tier 3. *)
let naive_rows img (cpu : Cpu.t) =
  let pen = Cost.epyc_rome.Cost.icache_miss_penalty in
  let acc = Hashtbl.create 64 in
  let get name =
    match Hashtbl.find_opt acc name with
    | Some a -> a
    | None ->
        let a = (Array.make 4 0.0, Array.make 3 0) in
        Hashtbl.replace acc name a;
        a
  in
  let owner rip =
    match Image.func_of_addr img rip with
    | Some f -> (f.Image.fname, Some f)
    | None -> (
        match Hashtbl.find_opt img.Image.builtin_addrs rip with
        | Some n -> ("<" ^ n ^ ">", None)
        | None -> ("<unknown>", None))
  in
  let callsite = function
    | Insn.Push (Insn.Imm _) | Insn.Vload _ | Insn.Vstore _ | Insn.Vload128 _ | Insn.Vstore128 _
    | Insn.Vload512 _ | Insn.Vstore512 _ | Insn.Vzeroupper | Insn.Nop _ -> true
    | _ -> false
  in
  Cpu.attach_observer ~tee:true cpu (fun ~rip ~cycles ~misses ~called ->
      let name, f = owner rip in
      let floats, ints = get name in
      let prologue =
        match f with
        | Some f -> (
            match Image.find_symbol img (f.Image.fname ^ ".Lprolog") with
            | Some a when a > f.Image.entry && a <= f.Image.entry + f.Image.code_len ->
                rip >= f.Image.entry && rip < a
            | _ -> false)
        | None -> false
      in
      let icache_c = float_of_int misses *. pen in
      floats.(0) <- floats.(0) +. cycles;
      ints.(0) <- ints.(0) + 1;
      ints.(1) <- ints.(1) + misses;
      floats.(3) <- floats.(3) +. icache_c;
      if prologue then floats.(2) <- floats.(2) +. (cycles -. icache_c)
      else (
        match Image.code_at img rip with
        | Some (insn, _) when callsite insn -> floats.(1) <- floats.(1) +. (cycles -. icache_c)
        | _ -> ());
      if called then begin
        let _, ints = get (fst (owner cpu.Cpu.rip)) in
        ints.(2) <- ints.(2) + 1
      end);
  fun () ->
    Hashtbl.fold
      (fun name (f, i) l ->
        if i.(0) = 0 then l
        else
          Printf.sprintf "%s:%Lx:%d:%d:%d:%Lx:%Lx:%Lx" name (Int64.bits_of_float f.(0)) i.(0) i.(1)
            i.(2) (Int64.bits_of_float f.(1)) (Int64.bits_of_float f.(2))
            (Int64.bits_of_float f.(3))
          :: l)
      acc []
    |> List.sort compare

let test_profiler_matches_naive () =
  let profile = Cost.epyc_rome in
  let mcf = R2c_workloads.Spec.find "mcf" in
  List.iter
    (fun (name, img) ->
      List.iter
        (fun jit ->
          let p = Process.start ~profile ~jit img in
          let pr = Profile.create ~profile img in
          Profile.attach pr p.Process.cpu;
          let naive = naive_rows img p.Process.cpu in
          ignore (Process.run p);
          let rows =
            List.map
              (fun (r : Profile.row) ->
                Printf.sprintf "%s:%Lx:%d:%d:%d:%Lx:%Lx:%Lx" r.Profile.name
                  (Int64.bits_of_float r.Profile.cycles) r.Profile.insns r.Profile.misses
                  r.Profile.calls
                  (Int64.bits_of_float r.Profile.callsite_cycles)
                  (Int64.bits_of_float r.Profile.prologue_cycles)
                  (Int64.bits_of_float r.Profile.icache_cycles))
              (Profile.rows pr)
            |> List.sort compare
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %s" name (if jit then "compiling" else "never compiling"))
            (naive ()) rows)
        [ true; false ])
    [
      ("fib", R2c_compiler.Driver.compile (Samples.fib_prog 10));
      ("mcf under full", R2c_core.Pipeline.compile ~seed:3 (R2c_core.Dconfig.full ()) mcf.R2c_workloads.Spec.program);
    ]

(* --- zero-cost when off: bit-identical cycles --- *)

let test_unobserved_bit_identical () =
  let img = R2c_compiler.Driver.compile (Samples.loop_prog 6) in
  let bare = Measure.run img in
  let sink = Obs.Sink.create () in
  let observed = Measure.run ~obs:sink ~label:"loop" img in
  Alcotest.(check bool) "cycles bit-identical" true
    (bare.Measure.total_cycles = observed.Measure.total_cycles);
  Alcotest.(check int) "insns equal" bare.Measure.insns observed.Measure.insns;
  Alcotest.(check int) "misses equal" bare.Measure.icache_misses
    observed.Measure.icache_misses;
  Alcotest.(check bool) "profile stored" true (Obs.Sink.profile sink "loop" <> None)

(* --- measure stats extension --- *)

let test_measure_depth_and_icache () =
  let s = Measure.run (R2c_compiler.Driver.compile (Samples.fib_prog 8)) in
  (* recursion depth: fib(8) nests 8 deep below main *)
  Alcotest.(check bool) "peak depth sees recursion" true (s.Measure.peak_depth >= 8);
  Alcotest.(check bool) "icache accessed" true (s.Measure.icache_accesses > 0);
  Alcotest.(check bool) "misses bounded by accesses" true
    (s.Measure.icache_misses <= s.Measure.icache_accesses)

(* --- pool timeline --- *)

let test_pool_span_invariant () =
  let sink, stats = Prof.pool_timeline ~requests:40 ~seed:7 () in
  let events = sink.Obs.Sink.events in
  let spans = Events.count ~cat:"request" events in
  Alcotest.(check int) "one span per submit"
    (stats.R2c_runtime.Pool.served + stats.R2c_runtime.Pool.dropped)
    spans;
  Alcotest.(check int) "crash instants" stats.R2c_runtime.Pool.crashes
    (Events.count ~cat:"crash" events);
  (* the mixed stream must actually exercise the crash path *)
  Alcotest.(check bool) "stream crashes" true (stats.R2c_runtime.Pool.crashes > 0);
  (* every post-mortem instant carries a non-empty tail of the dying
     child's last instructions *)
  let pms =
    List.filter
      (fun e -> Json.member "cat" e = Some (Json.Str "postmortem"))
      (jsonl_events (Events.to_jsonl events))
  in
  Alcotest.(check bool) "post-mortems captured" true (pms <> []);
  List.iter
    (fun e ->
      match Option.bind (Json.member "args" e) (Json.member "tail") with
      | Some (Json.Str tail) -> Alcotest.(check bool) "tail non-empty" true (String.length tail > 0)
      | _ -> Alcotest.fail "post-mortem without tail")
    pms;
  (* Chrome export is valid JSON *)
  (match Json.parse (Events.to_chrome events) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chrome trace: " ^ e));
  (* JSONL: every line parses *)
  String.split_on_char '\n' (Events.to_jsonl events)
  |> List.iter (fun line ->
         if line <> "" then
           match Json.parse line with
           | Ok _ -> ()
           | Error e -> Alcotest.fail ("jsonl line: " ^ e))

let test_events_bounded () =
  let t = Events.create ~limit:5 () in
  for i = 1 to 9 do
    Events.instant t ~name:"e" ~ts:i
  done;
  Alcotest.(check int) "kept" 5 (Events.count t);
  Alcotest.(check bool) "dropped counted" true
    (match Json.parse (Events.to_chrome t) with
    | Ok doc -> Option.bind (Json.member "otherData" doc) (Json.member "dropped") = Some (Json.Int 4)
    | Error _ -> false)

(* --- parser hardening: truncation, bad escapes, nesting bombs --- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_error_offsets () =
  (* Every rejection carries a byte offset — truncated containers and
     strings, malformed escapes, raw control bytes, comma slip-ups. *)
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted: " ^ String.escaped s)
      | Error e ->
          Alcotest.(check bool)
            ("offset in message for " ^ String.escaped s)
            true
            (String.length e >= 12 && String.sub e 0 12 = "json: offset"))
    [
      "{\"a\":";
      "[1,2";
      "\"abc";
      "{\"a\"}";
      "{\"a\":1,}";
      "[1 2]";
      "\"\\x\"";
      "\"\\u12\"";
      "\"\\u12zz\"";
      "\"a\tb\"";
      "\"half\\";
      "12.";
      "1e+";
    ]

let nest k = String.make k '[' ^ "1" ^ String.make k ']'

let test_json_depth_limit () =
  (* At the default bound: 512 levels parse, 513 report instead of
     overflowing the interpreter stack. *)
  (match Json.parse (nest 512) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("512 levels should parse: " ^ e));
  (match Json.parse (nest 513) with
  | Ok _ -> Alcotest.fail "accepted 513-deep nesting"
  | Error e ->
      Alcotest.(check bool) "names the bound" true (contains e "nesting too deep"));
  (* Objects count too, and the bound is tunable. *)
  (match Json.parse ~max_depth:2 "{\"a\":{\"b\":{\"c\":1}}}" with
  | Ok _ -> Alcotest.fail "max_depth 2 accepted 3-deep object"
  | Error _ -> ());
  match Json.parse ~max_depth:3 "{\"a\":{\"b\":{\"c\":1}}}" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("3-deep at max_depth 3 should parse: " ^ e)

(* --- Chrome trace export → re-parse round trip (property) --- *)

let prop_chrome_roundtrip =
  QCheck.Test.make ~name:"chrome trace export reparses with exact event count"
    ~count:50
    QCheck.(small_list (pair small_nat small_nat))
    (fun evs ->
      let t = Events.create ~limit:64 () in
      List.iteri
        (fun i (ts, dur) ->
          if i mod 2 = 0 then
            Events.complete t ~name:(Printf.sprintf "span\"%d\n" i) ~ts ~dur
          else
            Events.instant t ~name:"mark" ~ts
              ~args:[ ("k", "v\"\\escaped"); ("n", string_of_int dur) ])
        evs;
      (match Json.parse (Events.to_chrome t) with
      | Error _ -> false
      | Ok doc -> (
          match Json.member "traceEvents" doc with
          | Some (Json.Arr items) -> List.length items = Events.count t
          | _ -> false))
      && String.split_on_char '\n' (Events.to_jsonl t)
         |> List.for_all (fun l -> l = "" || Result.is_ok (Json.parse l)))

(* --- observer fan-out: the composing attaches --- *)

(* Two observers tee'd onto a reference run: at each new address both
   resolve, the earlier first, and every step fires the earlier's site,
   then the later's, at the same address. *)
let test_tee_fanout_order () =
  let img = R2c_compiler.Driver.compile (Samples.fib_prog 8) in
  let cpu = Loader.load ~jit:false ~profile:Cost.epyc_rome img in
  let log = ref [] in
  let mk tag ~rip =
    log := ("resolve " ^ tag, rip) :: !log;
    fun ~cycles:_ ~misses:_ ~called:_ -> log := (tag, rip) :: !log
  in
  Cpu.attach_observer cpu (mk "a");
  Cpu.attach_observer ~tee:true cpu (mk "b");
  (match Cpu.run_reference cpu ~fuel:1_000_000 with
  | Cpu.Halted -> ()
  | _ -> Alcotest.fail "run did not halt");
  let seen = Hashtbl.create 64 in
  let rec walk = function
    | ("resolve a", r) :: ("resolve b", r') :: rest when r = r' && not (Hashtbl.mem seen r) ->
        Hashtbl.replace seen r ();
        walk rest
    | ("a", r) :: ("b", r') :: rest when r = r' && Hashtbl.mem seen r -> 1 + walk rest
    | [] -> 0
    | (what, r) :: _ -> Alcotest.failf "out of order at %s 0x%x" what r
  in
  Alcotest.(check int) "one a-then-b pair per retired insn" cpu.Cpu.insns (walk (List.rev !log))

(* A staged observer resolves each text address once per attach, on both
   the reference dispatch and tier 3, and its sites fire once per retired
   instruction. *)
let test_staged_resolution () =
  let img = R2c_compiler.Driver.compile (Samples.fib_prog 8) in
  let go ~jit =
    let cpu = Loader.load ~jit:false ~profile:Cost.epyc_rome img in
    let stats = Jit.fresh_stats () in
    if jit then
      ignore (Jit.attach ~config:{ Jit.call_threshold = 1; backedge_threshold = 2 } ~stats cpu);
    let resolved = Hashtbl.create 64 and fires = ref 0 in
    Cpu.set_observer cpu
      (Some
         (fun ~rip ->
           Hashtbl.replace resolved rip
             (1 + Option.value ~default:0 (Hashtbl.find_opt resolved rip));
           fun ~cycles:_ ~misses:_ ~called:_ -> incr fires));
    (match Cpu.run cpu ~fuel:1_000_000 with
    | Cpu.Halted -> ()
    | _ -> Alcotest.fail "run did not halt");
    Alcotest.(check int) "one fire per retired insn" cpu.Cpu.insns !fires;
    if jit then Alcotest.(check bool) "tier 3 ran observed" true (stats.Jit.tier3_insns > 0);
    Hashtbl.iter
      (fun rip n -> if n <> 1 then Alcotest.failf "rip %x resolved %d times" rip n)
      resolved;
    Hashtbl.length resolved
  in
  Alcotest.(check int) "same addresses resolved on both tiers" (go ~jit:false) (go ~jit:true)

let test_tee_observers_coexist_per_step () =
  (* Regression for the clobbering bug: two observers fanned out through
     Cpu.attach_observer ~tee:true both fire on every retired instruction. *)
  let img = R2c_compiler.Driver.compile (Samples.fib_prog 8) in
  let cpu = Loader.load ~profile:Cost.epyc_rome img in
  let a = ref 0 and b = ref 0 in
  let count r ~rip:_ ~cycles:_ ~misses:_ ~called:_ = incr r in
  Cpu.attach_observer cpu (count a);
  Cpu.attach_observer ~tee:true cpu (count b);
  (match Cpu.run cpu ~fuel:1_000_000 with
  | Cpu.Halted -> ()
  | _ -> Alcotest.fail "run did not halt");
  Alcotest.(check bool) "steps observed" true (!a > 0);
  Alcotest.(check int) "both hooks fire every step" !a !b;
  Alcotest.(check int) "hook count = retired insns" cpu.Cpu.insns !a

let test_profiler_and_ring_tee () =
  (* Profile.attach then Ring.attach ~tee:true: the ring must not evict
     the profiler (the old set_observer clobbering), and both must see
     the whole run. *)
  let profile = Cost.epyc_rome in
  let img = R2c_compiler.Driver.compile (Samples.fib_prog 8) in
  let p = Process.start ~profile img in
  let pr = Profile.create ~profile img in
  Profile.attach pr p.Process.cpu;
  let ring = Ring.create ~capacity:1_000_000 in
  Ring.attach ~tee:true ring p.Process.cpu;
  (match Process.run p with
  | Process.Exited 0 -> ()
  | o -> Alcotest.fail (Process.outcome_to_string o));
  let prof_cycles =
    List.fold_left
      (fun acc (r : Profile.row) -> acc +. r.Profile.cycles)
      0.0 (Profile.rows pr)
  in
  Alcotest.(check bool) "profiler attributed cycles" true (prof_cycles > 0.0);
  Alcotest.(check int) "ring saw every insn" (Process.insns p)
    (List.length (ring_lines ring))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
        Alcotest.test_case "percentile extraction" `Quick test_percentile;
        Alcotest.test_case "registry exposition" `Quick test_registry_exposition;
        Alcotest.test_case "ring wraparound at exact capacity" `Quick
          test_ring_wraparound_exact_capacity;
        Alcotest.test_case "profiler two-function attribution" `Quick
          test_profiler_two_functions;
        Alcotest.test_case "profiler rows equal a naive attribution" `Quick
          test_profiler_matches_naive;
        Alcotest.test_case "profiler sums on diversified build" `Slow
          test_profiler_diversified_sums;
        Alcotest.test_case "unobserved run bit-identical" `Quick
          test_unobserved_bit_identical;
        Alcotest.test_case "measure depth and icache stats" `Quick
          test_measure_depth_and_icache;
        Alcotest.test_case "pool span invariant + exports" `Slow test_pool_span_invariant;
        Alcotest.test_case "event timeline bounded" `Quick test_events_bounded;
        Alcotest.test_case "json error offsets" `Quick test_json_error_offsets;
        Alcotest.test_case "json depth limit" `Quick test_json_depth_limit;
        QCheck_alcotest.to_alcotest prop_chrome_roundtrip;
        Alcotest.test_case "tee fan-out order" `Quick test_tee_fanout_order;
        Alcotest.test_case "staged observer resolves once per address" `Quick
          test_staged_resolution;
        Alcotest.test_case "tee observers coexist per step" `Quick
          test_tee_observers_coexist_per_step;
        Alcotest.test_case "profiler + trace ring tee" `Quick test_profiler_and_ring_tee;
      ] );
  ]
