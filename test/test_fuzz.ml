(* Differential fuzzing subsystem: generator v2, cross-config oracle,
   shrinker, corpus replay. *)

module Gen = R2c_fuzz.Gen
module Genprog = R2c_workloads.Genprog
module Oracle = R2c_fuzz.Oracle
module Campaign = R2c_fuzz.Campaign
module Corpus = R2c_fuzz.Corpus
module D = R2c_core.Dconfig

let test_v2_validates_and_runs () =
  for seed = 1 to 10 do
    let p = Gen.v2 ~seed () in
    (match Validate.check p with
    | [] -> ()
    | e :: _ ->
        Alcotest.failf "seed %d does not validate: %s" seed
          (Validate.error_to_string e));
    match Interp.run ~fuel:5_000_000 p with
    | Ok _ -> ()
    | Error e ->
        Alcotest.failf "seed %d reference run failed: %s" seed
          (Interp.error_to_string e)
  done

let test_genprog_delegates () =
  (* The scalability generator and the fuzzer share one implementation;
     equal seeds must produce identical programs. *)
  let a = Genprog.generate ~seed:7 ~funcs:12 in
  let b = Gen.layered ~seed:7 ~funcs:12 in
  Alcotest.(check bool) "same program" true (a = b)

let test_roundtrip_50 () =
  for seed = 1 to 50 do
    let p = if seed mod 2 = 0 then Gen.v2 ~seed () else Gen.layered ~seed ~funcs:6 in
    let s = Text.to_string p in
    match Text.parse s with
    | Error e -> Alcotest.failf "seed %d reparse failed: %s" seed (Text.error_to_string e)
    | Ok q ->
        if Text.to_string q <> s then
          Alcotest.failf "seed %d round-trip not identical" seed
  done

let test_matrix_covers_every_knob () =
  let cfgs = List.map snd Oracle.matrix in
  let has name pred = Alcotest.(check bool) name true (List.exists pred cfgs) in
  Alcotest.(check bool) "baseline present" true
    (List.mem_assoc "baseline" Oracle.matrix
    && List.assoc "baseline" Oracle.matrix = D.baseline);
  let btra pred c = match c.D.btra with Some b -> pred b | None -> false in
  has "btra push" (btra (fun b -> b.D.setup = D.Push));
  has "btra sse" (btra (fun b -> b.D.setup = D.Sse));
  has "btra avx" (btra (fun b -> b.D.setup = D.Avx));
  has "btra avx512" (btra (fun b -> b.D.setup = D.Avx512));
  has "btra to_builtins" (btra (fun b -> b.D.to_builtins));
  has "btra check_after_return" (btra (fun b -> b.D.check_after_return));
  has "btdp" (fun c -> c.D.btdp <> None);
  has "nops" (fun c -> c.D.nops <> None);
  has "prolog traps" (fun c -> c.D.prolog_traps <> None);
  has "function shuffle" (fun c -> c.D.shuffle_functions);
  has "global shuffle + padding" (fun c -> c.D.shuffle_globals && c.D.global_padding_max > 0);
  has "slot shuffle + padding" (fun c -> c.D.shuffle_stack_slots && c.D.slot_padding_max > 0);
  has "regalloc randomization" (fun c -> c.D.randomize_regalloc);
  has "oia" (fun c -> c.D.oia);
  has "xom" (fun c -> c.D.xom);
  has "aslr" (fun c -> c.D.aslr);
  has "booby-trap functions" (fun c -> c.D.booby_trap_funcs > 0)

let test_clean_campaign () =
  let r = Campaign.run ~seed:5 ~count:3 () in
  Alcotest.(check int) "programs" 3 r.Campaign.programs;
  Alcotest.(check int) "skipped" 0 r.Campaign.skipped;
  Alcotest.(check int) "divergences" 0 r.Campaign.divergences;
  Alcotest.(check int) "points per program" 13 r.Campaign.points

let test_planted_miscompile () =
  let out_dir = Filename.concat (Filename.get_temp_dir_name ()) "r2c_fuzz_test" in
  let sc = Campaign.self_check ~out_dir ~seed:11 () in
  Alcotest.(check bool) "caught" true sc.Campaign.caught;
  Alcotest.(check bool) "shrunk to <= 10 instructions" true
    (sc.Campaign.shrunk_size <= 10 && sc.Campaign.shrunk_size > 0);
  Alcotest.(check bool) "reproducer round-trips and still fails" true
    sc.Campaign.roundtrip_ok;
  Alcotest.(check bool) "shrunk program still fails" true sc.Campaign.still_fails;
  (* The reproducer on disk is a valid .r2c that still contains the Sub
     the plant miscompiles. *)
  match Corpus.load (Filename.concat out_dir sc.Campaign.reproducer) with
  | Error e -> Alcotest.fail ("reproducer unreadable: " ^ e)
  | Ok p ->
      Alcotest.(check bool) "reproducer validates" true (Validate.check p = []);
      let has_sub =
        List.exists
          (fun (f : Ir.func) ->
            List.exists
              (fun (b : Ir.block) ->
                List.exists
                  (function Ir.Binop (_, Ir.Sub, _, _) -> true | _ -> false)
                  b.Ir.body)
              f.Ir.blocks)
          p.Ir.funcs
      in
      Alcotest.(check bool) "reproducer keeps the planted Sub" true has_sub

(* The self-check's report names its reproducer, not where the temp
   directory put it: two temp directories give equal reports. *)
let test_self_check_tmpdir_independent () =
  let saved = Filename.get_temp_dir_name () in
  let under dir =
    let tmp = Filename.concat saved dir in
    if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755;
    Filename.set_temp_dir_name tmp;
    Fun.protect
      ~finally:(fun () -> Filename.set_temp_dir_name saved)
      (fun () -> Campaign.self_check ~seed:11 ())
  in
  let a = under "r2c_tmp_a" and b = under "r2c_tmp_b" in
  Alcotest.(check bool) "caught" true a.Campaign.caught;
  Alcotest.(check bool) "equal reports" true (a = b)

let test_replay_missing_dir_vacuous () =
  Alcotest.(check int) "no files, no failures" 0
    (List.length (Campaign.replay ~dir:"no_such_corpus_dir" ()))

let test_replay_corpus () =
  (* Replays every reproducer committed under test/corpus/; passes
     vacuously while the corpus is empty. *)
  match Campaign.replay ~dir:"corpus" () with
  | [] -> ()
  | (path, err) :: _ -> Alcotest.failf "corpus replay failed: %s: %s" path err

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator v2 validates and runs" `Quick
          test_v2_validates_and_runs;
        Alcotest.test_case "genprog delegates to shared generator" `Quick
          test_genprog_delegates;
        Alcotest.test_case "text round-trip on 50 generated programs" `Quick
          test_roundtrip_50;
        Alcotest.test_case "oracle matrix covers every knob" `Quick
          test_matrix_covers_every_knob;
        Alcotest.test_case "clean campaign finds no divergence" `Quick
          test_clean_campaign;
        Alcotest.test_case "planted miscompile caught and shrunk" `Quick
          test_planted_miscompile;
        Alcotest.test_case "self-check report independent of the temp dir" `Quick
          test_self_check_tmpdir_independent;
        Alcotest.test_case "replay of missing corpus is vacuous" `Quick
          test_replay_missing_dir_vacuous;
        Alcotest.test_case "replay committed corpus" `Quick test_replay_corpus;
      ] );
  ]
