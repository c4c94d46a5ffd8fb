(* Tests for the attacker-side value clustering and the execution tracer. *)

module Cluster = R2c_attacks.Cluster
open R2c_machine

let test_cluster_labels () =
  let values =
    [
      0x400123; 0x400456; 0x4003ab;  (* code *)
      0x5555_5555_0010; 0x5555_5555_2040;  (* static data *)
      0x5555_6000_1000; 0x5555_6000_2000; 0x5555_6002_0008;  (* heap *)
      0x7fff_ffff_e010; 0x7fff_ffff_e120;  (* stack *)
      42; 7;  (* small integers, not pointers *)
    ]
  in
  let cs = Cluster.analyze values in
  let find l = List.find_opt (fun c -> c.Cluster.label = l) cs in
  (match find Cluster.Code with
  | Some c -> Alcotest.(check int) "code members" 3 (List.length c.Cluster.members)
  | None -> Alcotest.fail "no code cluster");
  (match find Cluster.Heap_like with
  | Some c -> Alcotest.(check int) "heap members" 3 (List.length c.Cluster.members)
  | None -> Alcotest.fail "no heap cluster");
  (match find Cluster.Static_data with
  | Some c -> Alcotest.(check int) "data members" 2 (List.length c.Cluster.members)
  | None -> Alcotest.fail "no data cluster");
  (match find Cluster.Stack_like with
  | Some c -> Alcotest.(check int) "stack members" 2 (List.length c.Cluster.members)
  | None -> Alcotest.fail "no stack cluster");
  Alcotest.(check (list int)) "heap candidates"
    [ 0x5555_6000_1000; 0x5555_6000_2000; 0x5555_6002_0008 ]
    (Cluster.heap_candidates cs);
  Alcotest.(check int) "code candidates" 3 (List.length (Cluster.code_candidates cs))

let test_cluster_single_mmap_cluster_is_heap () =
  (* With only one mmap-range cluster the attacker treats it as heap and
     dereferences to find out. *)
  let cs = Cluster.analyze [ 0x5555_6000_1000; 0x5555_6000_1200 ] in
  Alcotest.(check int) "heap candidates" 2 (List.length (Cluster.heap_candidates cs))

let test_cluster_discards_small_ints () =
  let cs = Cluster.analyze [ 1; 2; 3; 0xffff ] in
  Alcotest.(check int) "no clusters" 0 (List.length cs)

let test_cluster_empty () =
  let cs = Cluster.analyze [] in
  Alcotest.(check int) "no clusters" 0 (List.length cs);
  Alcotest.(check (list int)) "no heap candidates" [] (Cluster.heap_candidates cs);
  Alcotest.(check (list int)) "no code candidates" [] (Cluster.code_candidates cs)

let test_cluster_single_value () =
  (* One mmap-range value: a singleton cluster, labelled heap, no exception. *)
  let cs = Cluster.analyze [ 0x5555_6000_1000 ] in
  Alcotest.(check int) "one cluster" 1 (List.length cs);
  Alcotest.(check (list int)) "the value is a heap candidate" [ 0x5555_6000_1000 ]
    (Cluster.heap_candidates cs)

let test_cluster_on_live_leak () =
  (* The analysis applied to an actual R2C frame finds a heap cluster that
     contains the BTDPs — the contamination the defense engineers. *)
  let img =
    R2c_defenses.Defenses.build_vulnapp R2c_defenses.Defenses.r2c ~seed:6
  in
  let module Oracle = R2c_attacks.Oracle in
  let target = Oracle.attach img in
  (match Oracle.to_serving target with Ok () -> () | Error e -> Alcotest.fail e);
  let values = Oracle.leak_at target ~addr:(Oracle.rsp target) ~words:512 in
  let cs = Cluster.analyze (Array.to_list values) in
  let heap = Cluster.heap_candidates cs in
  Alcotest.(check bool) "heap cluster found" true (heap <> []);
  let guards =
    Mem.guard_page_addrs (R2c_attacks.Oracle.proc target).Process.cpu.Cpu.mem
  in
  Alcotest.(check bool) "cluster contaminated with BTDPs" true
    (List.exists (fun v -> List.mem (Addr.page_base v) guards) heap)

(* --- tracer --- *)

let traced_image () =
  R2c_compiler.Driver.compile (Samples.fib_prog 5)

let test_trace_records_execution () =
  let cpu = Loader.load ~profile:Cost.epyc_rome (traced_image ()) in
  let tr = Ring.create ~capacity:64 in
  Ring.attach tr cpu;
  (match Cpu.run cpu ~fuel:1_000_000 with
  | Cpu.Halted -> ()
  | r -> Alcotest.failf "unexpected %s" (match r with Cpu.Fuel_exhausted -> "fuel" | _ -> "fault"));
  let rs = Test_obs.ring_lines tr in
  Alcotest.(check int) "ring full" 64 (List.length rs);
  (* The final record is the halt. *)
  (match List.rev rs with
  | last :: _ ->
      Alcotest.(check bool) "ends with hlt" true (List.mem "hlt" (String.split_on_char ' ' last))
  | [] -> Alcotest.fail "no records");
  (* Symbols are attached for compiled code. *)
  Alcotest.(check bool) "symbols present" true
    (List.exists (String.ends_with ~suffix:"; fib") rs)

let test_trace_capacity_bound () =
  let cpu = Loader.load ~profile:Cost.epyc_rome (traced_image ()) in
  let tr = Ring.create ~capacity:8 in
  Ring.attach tr cpu;
  ignore (Cpu.run cpu ~fuel:1_000_000);
  Alcotest.(check int) "bounded" 8 (List.length (Test_obs.ring_lines tr))

let test_trace_order () =
  let cpu = Loader.load ~profile:Cost.epyc_rome (traced_image ()) in
  let tr = Ring.create ~capacity:16 in
  Ring.attach tr cpu;
  ignore (Cpu.run cpu ~fuel:1_000_000);
  (* Records are in execution order: a ret is eventually followed by the
     halt in _start; pp_tail renders without raising. *)
  Alcotest.(check bool) "tail non-empty" true (String.length (Ring.pp_tail tr ~n:8) > 0)

(* --- dump --- *)

let test_dump_summary_and_listing () =
  let img =
    R2c_defenses.Defenses.build_vulnapp R2c_defenses.Defenses.r2c ~seed:3
  in
  let full = Dump.image img in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* The summary paragraph heads the listing. *)
  Alcotest.(check bool) "summary mentions xom" true
    (contains (List.hd (String.split_on_char '\n' full)) "(--x)");
  Alcotest.(check bool) "booby traps annotated" true (contains full "BOOBY TRAP FUNCTION");
  Alcotest.(check bool) "batch loads annotated" true (contains full "BTRA batch load");
  Alcotest.(check bool) "process_request present" true (contains full "<process_request>")

let test_dump_push_annotations () =
  let img =
    R2c_defenses.Defenses.build_vulnapp
      { R2c_defenses.Defenses.r2c with
        R2c_defenses.Defenses.cfg = R2c_core.Dconfig.full ~setup:R2c_core.Dconfig.Push () }
      ~seed:3
  in
  let full = Dump.image img in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "BTRA pushes annotated" true (contains full "BTRA -> booby trap");
  Alcotest.(check bool) "RA pre-write annotated" true
    (contains full "return address pre-write")

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "cluster labels" `Quick test_cluster_labels;
        Alcotest.test_case "single mmap cluster" `Quick test_cluster_single_mmap_cluster_is_heap;
        Alcotest.test_case "small ints discarded" `Quick test_cluster_discards_small_ints;
        Alcotest.test_case "empty input" `Quick test_cluster_empty;
        Alcotest.test_case "single value" `Quick test_cluster_single_value;
        Alcotest.test_case "cluster on live leak" `Quick test_cluster_on_live_leak;
        Alcotest.test_case "trace records" `Quick test_trace_records_execution;
        Alcotest.test_case "trace capacity" `Quick test_trace_capacity_bound;
        Alcotest.test_case "trace order" `Quick test_trace_order;
        Alcotest.test_case "dump summary/listing" `Quick test_dump_summary_and_listing;
        Alcotest.test_case "dump push annotations" `Quick test_dump_push_annotations;
      ] );
  ]
