(* Exported means used: every value and record type that an interface under
   lib/ exports has a use in some other compilation unit of lib/, bin/,
   examples/ or perfbench/; a value only test/ uses is a declared test hook
   (see DESIGN.md, "Exports").

     exports.exe ROOT          the checks, as alcotest cases
     exports.exe ROOT report   every export with the units that use it

   ROOT is the build context's root ([_build/default]); the dune rule that
   runs this depends on each directory's [@check] alias, which is what
   writes a [.cmt] for a single-module executable. *)

let dirs = [ "lib"; "bin"; "test"; "examples"; "perfbench" ]
let max_allowed = 5

(* [Unit.name  reason] per line; [#] starts a comment line. *)
let allowlist file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Some (line, "")
           | Some i -> Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i))))

(* [Unit.name  test_file.ml: why] per line: the hook's name, the test file
   and the reason, [None] for each part missing. *)
let hooks file =
  List.map
    (fun (k, rest) ->
      match String.index_opt rest ':' with
      | Some i when Filename.check_suffix (String.sub rest 0 i) ".ml" ->
          let why = String.trim (String.sub rest (i + 1) (String.length rest - i - 1)) in
          (k, Some (String.sub rest 0 i), if why = "" then None else Some why)
      | _ -> (k, None, None))
    (allowlist file)

let hook_pairs file = List.filter_map (fun (k, f, _) -> Option.map (fun f -> (k, f)) f) (hooks file)

let pp_findings fs = String.concat "\n" (List.map (fun (rule, k) -> Printf.sprintf "(%s) %s" rule k) fs)
let findings = Alcotest.(list (pair string string))

let fixture_findings root =
  let t =
    Xref.scan ~root ~interfaces:[ "test/exports/fixture" ] ~uses:[ "test/exports/fixture" ]
      ~tests:[ "test/exports/fixture/probe" ]
  in
  Xref.findings ~hooks:(hook_pairs (Filename.concat root "test/exports/fixture/hooks")) t

(* Rules (a)-(c), the unused exports: one planted finding each. *)
let fixture root () =
  Alcotest.check findings "one finding per rule, on Api only"
    [
      ("a", "Exports_fixture.Api.unused");
      ("b", "Exports_fixture.Api.hidden");
      ("c", "Exports_fixture.Api.counter");
    ]
    (List.filter (fun (rule, _) -> List.mem rule [ "a"; "b"; "c" ]) (fixture_findings root))

(* Rule (d) and the hooks file: the undeclared test-only value is the one
   finding left, the declared hook none, and no hooks line goes stale. *)
let fixture_hooks root () =
  Alcotest.check findings "Api.tested only"
    [ ("d", "Exports_fixture.Api.tested") ]
    (List.filter (fun (rule, _) -> not (List.mem rule [ "a"; "b"; "c" ])) (fixture_findings root))

let tree root =
  lazy
    (let t = Xref.scan ~root ~interfaces:[ "lib" ] ~uses:dirs ~tests:[ "test" ] in
     (t, Xref.findings ~hooks:(hook_pairs (Filename.concat root "test/exports/hooks")) t))

let every_dir_read tree () =
  let t, _ = Lazy.force tree in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (d ^ ": at least one .cmt read (is its @check alias a dependency?)")
        true
        (List.mem d t.Xref.cmt_dirs))
    dirs

let allowlist_short root () =
  let entries = allowlist (Filename.concat root "test/exports/allowlist") in
  Alcotest.(check bool)
    (Printf.sprintf "at most %d entries" max_allowed)
    true
    (List.length entries <= max_allowed);
  List.iter (fun (k, reason) -> Alcotest.(check bool) (k ^ " names its reason") true (reason <> "")) entries

let hooks_reasoned root () =
  List.iter
    (fun (k, file, why) ->
      Alcotest.(check bool) (k ^ " names its test file (test_x.ml: why)") true (file <> None);
      Alcotest.(check bool) (k ^ " says why the public path cannot reach it") true (why <> None))
    (hooks (Filename.concat root "test/exports/hooks"))

let no_unused_exports root tree () =
  let _, fs = Lazy.force tree in
  let allowed = List.map fst (allowlist (Filename.concat root "test/exports/allowlist")) in
  let hits = List.filter (fun (_, k) -> not (List.mem k allowed)) fs in
  if hits <> [] then
    Alcotest.failf
      "exports no other unit uses (unexport them, make the record abstract or private, or \
       allowlist with a reason); (d): only tests use it (delete it, unexport it, or declare \
       it in test/exports/hooks); (hook): a hooks line that exempts nothing:\n%s"
      (pp_findings hits);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ ": allowlist entry still matches a finding") true
        (List.exists (fun (_, k') -> k' = k) fs))
    allowed

let () =
  let root = Sys.argv.(1) in
  if Array.length Sys.argv > 2 && Sys.argv.(2) = "report" then
    print_string (Xref.report (Xref.scan ~root ~interfaces:[ "lib" ] ~uses:dirs ~tests:[ "test" ]))
  else
    let tree = tree root in
    Alcotest.run ~argv:[| Sys.argv.(0) |] "exports"
      [
        ( "checker",
          [
            Alcotest.test_case "planted fixture: exactly its three findings" `Quick (fixture root);
            Alcotest.test_case "planted fixture: test-only rule and hooks" `Quick (fixture_hooks root);
          ] );
        ( "tree",
          [
            Alcotest.test_case "a .cmt from each of the five directories" `Quick (every_dir_read tree);
            Alcotest.test_case "allowlist: short, every entry with a reason" `Quick (allowlist_short root);
            Alcotest.test_case "hooks: every entry names its test and why" `Quick (hooks_reasoned root);
            Alcotest.test_case "every lib/ export used outside its unit" `Quick (no_unused_exports root tree);
          ] );
      ]
