module Defenses = R2c_defenses.Defenses
module Oracle = R2c_attacks.Oracle
open R2c_machine

let model name = Option.get (Defenses.find name)
let aslr = model "aslr"
let codearmor = model "CodeArmor"
let krx = model "kR^X"

let test_all_models_listed () =
  Alcotest.(check (list string)) "table order"
    [ "unprotected"; "aslr"; "CodeArmor"; "TASR"; "StackArmor"; "Readactor"; "kR^X"; "R2C" ]
    (List.map (fun (d : Defenses.t) -> d.Defenses.name) Defenses.all)

let test_cph_hides_function_pointers () =
  (* Under Readactor's code-pointer hiding, the service table holds
     trampoline addresses, not function entries — yet dispatch still
     works (the benign-run test elsewhere). *)
  let img = Defenses.build_vulnapp Defenses.readactor ~seed:7 in
  let table = Image.symbol img "g_service_table" in
  let entries =
    List.filter_map
      (fun (f : Image.func_info) ->
        if f.Image.is_booby_trap then None else Some (f.Image.fname, f.Image.entry))
      (Array.to_list img.Image.funcs)
  in
  let handler_entries =
    List.filter_map
      (fun (n, e) -> if String.length n >= 7 && String.sub n 0 7 = "handler" then Some e else None)
      entries
  in
  (* Resolve the init words for the table from the image's data init. *)
  let slot_values =
    let words = Lazy.force img.Image.data_words in
    List.init (Array.length words / 2) (fun k -> (words.(2 * k), words.((2 * k) + 1)))
    |> List.filter_map (fun (addr, v) -> if addr >= table && addr < table + 32 then Some v else None)
  in
  Alcotest.(check int) "four slots" 4 (List.length slot_values);
  List.iter
    (fun v ->
      Alcotest.(check bool) "slot is not a raw handler entry" false
        (List.mem v handler_entries);
      Alcotest.(check bool) "slot is in text (a trampoline)" true
        (Addr.region_of v = Addr.Text))
    slot_values

let test_cph_trampolines_execute () =
  let img = Defenses.build_vulnapp codearmor ~seed:9 in
  let p = Process.start img in
  match Process.run p with
  | Process.Exited 0 -> ()
  | o -> Alcotest.failf "CPH dispatch broke the program: %s" (Process.outcome_to_string o)

let test_unprotected_has_readable_text () =
  let img = Defenses.build_vulnapp Defenses.unprotected ~seed:3 in
  Alcotest.(check bool) "rx text" true (img.Image.text_perm = Perm.rx)

let test_xom_models () =
  List.iter
    (fun (d : Defenses.t) ->
      let img = Defenses.build_vulnapp d ~seed:3 in
      Alcotest.(check bool) (d.Defenses.name ^ " execute-only") true
        (img.Image.text_perm = Perm.xo))
    [ codearmor; Defenses.readactor; krx; Defenses.r2c ]

let test_aslr_models_slide () =
  let a = Defenses.build_vulnapp aslr ~seed:1 in
  let b = Defenses.build_vulnapp aslr ~seed:2 in
  Alcotest.(check bool) "text slides differ" true (a.Image.text_base <> b.Image.text_base)

let test_krx_single_decoy () =
  (* kR^X: exactly one decoy after the return address, none before. *)
  match krx.Defenses.cfg.R2c_core.Dconfig.btra with
  | Some b ->
      Alcotest.(check int) "total" 1 b.R2c_core.Dconfig.total;
      Alcotest.(check int) "max post" 1 b.R2c_core.Dconfig.max_post
  | None -> Alcotest.fail "kR^X must use decoys"

let test_tasr_relink_invalidate () =
  (* The TASR oracle semantics: a send crosses the I/O boundary and the
     layout the attacker observed is gone. *)
  let d = Defenses.tasr in
  let counter = ref 0 in
  let relink () =
    incr counter;
    Defenses.build_vulnapp d ~seed:(100 + !counter)
  in
  let target = Oracle.attach ~relink (Defenses.build_vulnapp d ~seed:50) in
  (match Oracle.to_break target with `Break -> () | `Done _ -> Alcotest.fail "no break");
  let before = Image.symbol (Oracle.proc target).Process.image "main" in
  Oracle.send target "x";
  let after = Image.symbol (Oracle.proc target).Process.image "main" in
  Alcotest.(check bool) "layout re-randomized on send" true (before <> after)

(* The monitor's view outlives the process a relink replaces: crashes and
   detections are the old processes' plus the current one's. *)
let test_relink_keeps_counts () =
  let d = Defenses.r2c_rerand in
  let counter = ref 0 in
  let relink () =
    incr counter;
    Defenses.build_vulnapp d ~seed:(200 + !counter)
  in
  let target = Oracle.attach ~relink (Defenses.build_vulnapp d ~seed:200) in
  (match Oracle.to_serving target with Ok () -> () | Error e -> Alcotest.fail e);
  let counts what c d =
    Alcotest.(check (pair int int)) what (c, d) (Oracle.crashes target, Oracle.detections target)
  in
  (match Mem.guard_page_addrs (Oracle.proc target).Process.cpu.Cpu.mem with
  | g :: _ -> ignore (Oracle.arb_read target g)
  | [] -> Alcotest.fail "no guard page");
  counts "guard page: one crash, one detection" 1 1;
  let img = (Oracle.proc target).Process.image in
  Oracle.restart target;
  Alcotest.(check bool) "restart relinked" true ((Oracle.proc target).Process.image != img);
  counts "carried across the relink" 1 1;
  Alcotest.(check bool) "still detected" true (Oracle.detected target);
  (match Oracle.to_break target with `Break -> () | `Done _ -> Alcotest.fail "no break");
  ignore (Oracle.arb_read target 0);
  counts "old plus current" 2 1

let suite =
  [
    ( "defenses",
      [
        Alcotest.test_case "models listed" `Quick test_all_models_listed;
        Alcotest.test_case "CPH hides pointers" `Quick test_cph_hides_function_pointers;
        Alcotest.test_case "CPH trampolines execute" `Quick test_cph_trampolines_execute;
        Alcotest.test_case "unprotected rx text" `Quick test_unprotected_has_readable_text;
        Alcotest.test_case "xom models" `Quick test_xom_models;
        Alcotest.test_case "aslr slides" `Quick test_aslr_models_slide;
        Alcotest.test_case "kR^X single decoy" `Quick test_krx_single_decoy;
        Alcotest.test_case "TASR relink on send" `Quick test_tasr_relink_invalidate;
        Alcotest.test_case "relink keeps crash and detection counts" `Quick test_relink_keeps_counts;
      ] );
  ]
