(* Record-reduce-replay: the builtin-boundary recorder, the .r2cr trace
   format, the fidelity-gated replayer, and trace-level delta debugging. *)

open R2c_machine
module B = Builder
module RTrace = R2c_replay.Trace
module Record = R2c_replay.Record
module Replayer = R2c_replay.Replayer
module Reduce = R2c_replay.Reduce

(* A bounded echo server: [rounds] iterations of read-then-print. With
   fewer queued payloads than rounds, the tail reads return 0 — exactly
   the chatter the reducer must learn to drop. *)
let echo_prog ~rounds =
  let main = B.func "main" ~nparams:0 in
  let s_buf = B.slot main 64 in
  let s_i = B.slot main 8 in
  let i_addr = B.slot_addr main s_i in
  B.store main i_addr 0 (Ir.Const 0);
  let header = B.new_block main
  and body = B.new_block main
  and stop = B.new_block main in
  B.br main header;
  B.switch_to main header;
  let iv = B.load main i_addr 0 in
  let cmp = B.cmp main Ir.Lt iv (Ir.Const rounds) in
  B.cond_br main cmp body stop;
  B.switch_to main body;
  let n = B.call main (Ir.Builtin "read_input") [ B.slot_addr main s_buf; Ir.Const 64 ] in
  B.call_void main (Ir.Builtin "print_int") [ n ];
  let iv2 = B.load main i_addr 0 in
  let iv3 = B.binop main Ir.Add iv2 (Ir.Const 1) in
  B.store main i_addr 0 iv3;
  B.br main header;
  B.switch_to main stop;
  B.ret main (Some (Ir.Const 0));
  B.program ~main:"main" [ B.finish main ] []

let meta ?(config = "full") ?(seed = 3) workload =
  { RTrace.workload; config; seed; machine = "EPYC Rome"; fuel = 2_000_000 }

let capture ?(rounds = 6) ?(inputs = [ "ab"; "xyz" ]) ?config ?seed () =
  match
    Record.capture ~fuel:2_000_000
      ~meta:(meta ?config ?seed "echo")
      ~program:(echo_prog ~rounds) ~inputs ()
  with
  | Ok t -> t
  | Error e -> Alcotest.fail ("capture failed: " ^ e)

let count_spans pred (t : RTrace.t) =
  let rec go acc = function
    | RTrace.Span s -> if pred s then acc + 1 else acc
    | RTrace.Feed _ -> acc
    | RTrace.Loop (body, _) -> List.fold_left go acc body
  in
  List.fold_left go 0 t.RTrace.events

(* --- recording --- *)

let test_capture_spans () =
  let t = capture () in
  (* 6 reads (2 delivered, 4 empty) and 6 prints from the loop itself,
     plus the diversified runtime's own allocation/guard-page chatter. *)
  Alcotest.(check int) "delivered reads" 2
    (count_spans (fun s -> s.RTrace.builtin = "read_input" && s.RTrace.rax > 0) t);
  Alcotest.(check int) "empty reads" 4
    (count_spans (fun s -> s.RTrace.builtin = "read_input" && s.RTrace.rax = 0) t);
  Alcotest.(check int) "prints" 6
    (count_spans (fun s -> s.RTrace.builtin = "print_int") t);
  Alcotest.(check bool) "runtime allocation chatter captured" true
    (count_spans (fun s -> s.RTrace.builtin = "malloc_pages") t > 0);
  Alcotest.(check (list string)) "feeds are the delivered payloads"
    [ "ab"; "xyz" ] (RTrace.feeds t);
  Alcotest.(check int) "clean exit recorded" 0 t.RTrace.expect.RTrace.e_exit;
  (* The tap stored the delivered bytes and the result register. *)
  let rec first_data = function
    | RTrace.Span s :: _ when s.RTrace.data <> None -> s
    | _ :: rest -> first_data rest
    | [] -> Alcotest.fail "no data span"
  in
  let s = first_data t.RTrace.events in
  Alcotest.(check (option string)) "payload bytes" (Some "ab") s.RTrace.data;
  Alcotest.(check int) "rax = delivered length" 2 s.RTrace.rax

let test_capture_deterministic () =
  let a = RTrace.to_string (capture ()) in
  let b = RTrace.to_string (capture ()) in
  Alcotest.(check string) "same capture byte-for-byte" a b

let test_recorder_keeps_existing_observer () =
  (* An observer attached before the recorder keeps firing: the recorder
     only installs the builtin tap and leaves the observer slot alone. *)
  let external_steps = ref 0 in
  let t =
    match
      Record.capture ~fuel:2_000_000 ~meta:(meta "echo")
        ~prepare:(fun cpu ->
          Cpu.set_observer cpu
            (Some (fun ~rip:_ ~cycles:_ ~misses:_ ~called:_ -> incr external_steps)))
        ~program:(echo_prog ~rounds:4) ~inputs:[ "hi" ] ()
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "external observer still fired" true (!external_steps > 0);
  Alcotest.(check bool) "recorder captured spans" true (RTrace.span_count t > 0)

(* --- serialization --- *)

let test_fnv_known_values () =
  Alcotest.(check int64) "fnv empty" 0xcbf29ce484222325L (RTrace.output_hash "");
  Alcotest.(check int64) "fnv a" 0xaf63dc4c8601ec8cL (RTrace.output_hash "a")

let test_roundtrip () =
  let t = capture () in
  match RTrace.of_string (RTrace.to_string t) with
  | Error e -> Alcotest.fail ("reparse: " ^ e)
  | Ok t' ->
      Alcotest.(check string) "identical serialization" (RTrace.to_string t)
        (RTrace.to_string t');
      Alcotest.(check (list string)) "same feeds" (RTrace.feeds t) (RTrace.feeds t');
      Alcotest.(check int) "same size" (RTrace.size t) (RTrace.size t');
      Alcotest.(check int64) "same output hash" t.RTrace.expect.RTrace.e_output_hash
        t'.RTrace.expect.RTrace.e_output_hash

let test_roundtrip_reduced () =
  (* Feeds, dictionary and loops all survive the wire format. *)
  let t, _ = Reduce.run (capture ~rounds:12 ~inputs:(List.init 8 (fun _ -> "GET /x")) ()) in
  match RTrace.of_string (RTrace.to_string t) with
  | Error e -> Alcotest.fail ("reparse reduced: " ^ e)
  | Ok t' ->
      Alcotest.(check (list string)) "same feeds" (RTrace.feeds t) (RTrace.feeds t');
      Alcotest.(check string) "identical serialization" (RTrace.to_string t)
        (RTrace.to_string t')

let test_of_string_rejects () =
  let t = capture () in
  let good = RTrace.to_string t in
  let cases =
    [
      ("empty", "");
      ("header only", "{\"r2cr\":1}");
      ("not r2cr", "{\"r2cr\":2}\n{\"program\":\"\"}\n");
      ("bad header json", "{oops\n{\"program\":\"\"}\n");
      ( "bad program text",
        "{\"r2cr\":1,\"workload\":\"w\",\"config\":\"full\",\"seed\":1,\"machine\":\"EPYC \
         Rome\",\"fuel\":1000,\"expect\":{\"cycles\":1.0,\"insns\":1,\"accesses\":1,\"misses\":0,\"exit\":0,\"output_len\":0,\"output_hash\":\"cbf29ce484222325\"},\"dict\":[]}\n\
         {\"program\":\"not ir\"}\n" );
    ]
    @ (* Hostile rebuild coordinates in an otherwise valid trace. *)
    List.map
      (fun (what, meta) -> (what, RTrace.to_string { t with RTrace.meta }))
      [
        ("unknown config", { t.RTrace.meta with RTrace.config = "warp-drive" });
        ("unknown machine", { t.RTrace.meta with RTrace.machine = "PDP-11" });
      ]
  in
  List.iter
    (fun (what, s) ->
      match RTrace.of_string s with
      | Ok _ -> Alcotest.fail ("accepted " ^ what)
      | Error _ -> ())
    cases;
  (* A dictionary index past the end is structural corruption. *)
  let bad = { t with RTrace.events = RTrace.Feed 99 :: t.RTrace.events } in
  match RTrace.of_string (RTrace.to_string bad) with
  | Ok _ -> Alcotest.fail "accepted out-of-range dictionary index"
  | Error e -> Alcotest.(check bool) "names the index" true (String.length e > 0);
  (match RTrace.of_string good with Ok _ -> () | Error e -> Alcotest.fail e)

let test_feeds_loop_expansion () =
  let t = capture () in
  let t =
    {
      t with
      RTrace.dict = [| "x"; "y" |];
      events = [ RTrace.Loop ([ RTrace.Feed 0; RTrace.Feed 1 ], 3) ];
    }
  in
  Alcotest.(check (list string)) "loop expands in order"
    [ "x"; "y"; "x"; "y"; "x"; "y" ] (RTrace.feeds t);
  Alcotest.(check int) "span_count expands too" 6 (RTrace.span_count t)

let test_save_load_files () =
  let dir = Filename.temp_file "r2cr" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let t = capture () in
  let path = Filename.concat dir "echo.r2cr" in
  RTrace.save ~path t;
  Alcotest.(check (list string)) "directory listing" [ path ] (RTrace.files ~dir);
  (match RTrace.load path with
  | Ok t' -> Alcotest.(check string) "load = save" (RTrace.to_string t) (RTrace.to_string t')
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "missing dir is empty" []
    (RTrace.files ~dir:(Filename.concat dir "nope"))

(* --- replay fidelity --- *)

let test_replay_reproduces () =
  let t = capture () in
  match Replayer.check t with
  | Ok v -> Alcotest.(check (list string)) "no failures" [] v.Replayer.failures
  | Error e -> Alcotest.fail e

let test_fidelity_breach_detected () =
  let t = capture () in
  let breach expect what sub =
    match Replayer.check { t with RTrace.expect } with
    | Error e -> Alcotest.fail e
    | Ok v ->
        Alcotest.(check bool) (what ^ " flagged") true
          (List.exists
             (fun f ->
               let n = String.length sub in
               String.length f >= n && String.sub f 0 n = sub)
             v.Replayer.failures)
  in
  let e = t.RTrace.expect in
  breach { e with RTrace.e_cycles = e.RTrace.e_cycles *. 1.5 } "cycles drift" "cycles";
  breach { e with RTrace.e_insns = e.RTrace.e_insns * 2 } "insn drift" "insns";
  breach { e with RTrace.e_output_hash = 0L } "output divergence" "output";
  breach { e with RTrace.e_exit = 7 } "exit mismatch" "exit"

let test_replay_under_other_configs () =
  (* The replay contract holds at other diversification coordinates:
     recording embeds the coordinates and replay recompiles under them. *)
  List.iter
    (fun config ->
      let t = capture ~config ~seed:11 () in
      match Replayer.check t with
      | Ok v ->
          Alcotest.(check (list string)) (config ^ " reproduces") [] v.Replayer.failures
      | Error e -> Alcotest.fail (config ^ ": " ^ e))
    [ "baseline"; "full-checked"; "btdp" ]

(* --- reduction --- *)

let test_reduce_preserves_semantics () =
  let raw = capture ~rounds:12 ~inputs:(List.init 8 (fun i -> Printf.sprintf "GET /%d" (i mod 2))) () in
  let reduced, rep = Reduce.run raw in
  (* Feeds — the replayed environment — are untouched by reduction. *)
  Alcotest.(check (list string)) "same feeds" (RTrace.feeds raw) (RTrace.feeds reduced);
  Alcotest.(check bool) "strictly smaller" true (RTrace.size reduced < RTrace.size raw);
  Alcotest.(check bool) "at least 30% smaller" true (Reduce.ratio rep >= 0.30);
  Alcotest.(check int) "report raw" (RTrace.size raw) rep.Reduce.raw_bytes;
  Alcotest.(check int) "report reduced" (RTrace.size reduced) rep.Reduce.reduced_bytes;
  (* Observational spans are gone; the dictionary is deduplicated. *)
  Alcotest.(check int) "prints dropped" 0
    (count_spans (fun s -> s.RTrace.builtin = "print_int") reduced);
  Alcotest.(check bool) "dict deduped" true (Array.length reduced.RTrace.dict <= 2);
  (* And the reduced trace still passes the gate it was reduced under. *)
  match Replayer.check reduced with
  | Ok v -> Alcotest.(check (list string)) "still reproduces" [] v.Replayer.failures
  | Error e -> Alcotest.fail e

let test_reduce_deterministic () =
  let mk () = fst (Reduce.run (capture ~rounds:10 ~inputs:[ "a"; "b"; "a"; "b" ] ())) in
  Alcotest.(check string) "same reduction byte-for-byte"
    (RTrace.to_string (mk ()))
    (RTrace.to_string (mk ()))

let test_reduce_budget_respected () =
  let raw = capture ~rounds:10 ~inputs:[ "a"; "b"; "a"; "b" ] () in
  let _, rep = Reduce.run ~max_checks:1 raw in
  Alcotest.(check bool) "oracle budget binds" true (rep.Reduce.checks <= 1)

let suite =
  [
    ( "replay",
      [
        Alcotest.test_case "capture spans at the builtin boundary" `Quick
          test_capture_spans;
        Alcotest.test_case "capture is deterministic" `Quick test_capture_deterministic;
        Alcotest.test_case "recorder keeps an existing observer" `Quick
          test_recorder_keeps_existing_observer;
        Alcotest.test_case "fnv-1a known values" `Quick test_fnv_known_values;
        Alcotest.test_case "r2cr round-trip" `Quick test_roundtrip;
        Alcotest.test_case "r2cr round-trip after reduction" `Quick
          test_roundtrip_reduced;
        Alcotest.test_case "r2cr rejects malformed documents" `Quick
          test_of_string_rejects;
        Alcotest.test_case "feed/loop expansion" `Quick test_feeds_loop_expansion;
        Alcotest.test_case "save/load/files" `Quick test_save_load_files;
        Alcotest.test_case "replay reproduces the profile" `Quick
          test_replay_reproduces;
        Alcotest.test_case "fidelity breaches detected" `Quick
          test_fidelity_breach_detected;
        Alcotest.test_case "replay across configs" `Slow test_replay_under_other_configs;
        Alcotest.test_case "reduction preserves semantics" `Quick
          test_reduce_preserves_semantics;
        Alcotest.test_case "reduction is deterministic" `Quick test_reduce_deterministic;
        Alcotest.test_case "reduction respects the oracle budget" `Quick
          test_reduce_budget_respected;
      ] );
  ]
