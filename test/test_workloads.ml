module Spec = R2c_workloads.Spec
module Webserver = R2c_workloads.Webserver
module Genprog = R2c_workloads.Genprog
module Dconfig = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
open R2c_machine

let interp_output ?(fuel = 100_000_000) p =
  match Interp.run ~fuel p with
  | Ok r -> (r.Interp.output, r.Interp.exit_code)
  | Error e -> Alcotest.failf "interp: %s" (Interp.error_to_string e)

let machine_output ?(strict = true) img =
  let p = Process.start ~strict_align:strict ~fuel:100_000_000 img in
  match Process.run p with
  | Process.Exited code -> (Process.output p, code)
  | o -> Alcotest.failf "machine: %s" (Process.outcome_to_string o)

let test_spec_names () =
  let names = List.map (fun (b : Spec.benchmark) -> b.name) (Spec.all ()) in
  Alcotest.(check int) "twelve benchmarks" 12 (List.length names);
  Alcotest.(check (list string)) "paper order"
    [ "perlbench"; "gcc"; "mcf"; "lbm"; "omnetpp"; "xalancbmk"; "x264"; "deepsjeng";
      "imagick"; "leela"; "nab"; "xz" ]
    names

let test_spec_baseline_differential () =
  List.iter
    (fun (b : Spec.benchmark) ->
      let expected = interp_output b.program in
      let got = machine_output (R2c_compiler.Driver.compile b.program) in
      Alcotest.(check (pair string int)) (b.name ^ " baseline") expected got)
    (Spec.all ())

let test_spec_full_r2c_differential () =
  (* The whole suite under the full Figure 6 configuration. *)
  List.iter
    (fun (b : Spec.benchmark) ->
      let expected = interp_output b.program in
      let got = machine_output (Pipeline.compile ~seed:21 (Dconfig.full ()) b.program) in
      Alcotest.(check (pair string int)) (b.name ^ " full R2C") expected got)
    (Spec.all ())

let test_spec_call_ordering_matches_paper () =
  (* nab must dominate, lbm must be negligible — Table 2's anchors. *)
  let counts =
    List.map
      (fun (b : Spec.benchmark) ->
        let img = R2c_compiler.Driver.compile b.program in
        let p = Process.start img in
        (match Process.run p with
        | Process.Exited 0 -> ()
        | o -> Alcotest.failf "%s: %s" b.name (Process.outcome_to_string o));
        (b.name, Process.calls p))
      (Spec.all ())
  in
  let get n = List.assoc n counts in
  Alcotest.(check bool) "nab has the most calls" true
    (List.for_all (fun (n, c) -> n = "nab" || c < get "nab") counts);
  Alcotest.(check bool) "lbm has the fewest" true
    (List.for_all (fun (n, c) -> n = "lbm" || c > get "lbm") counts);
  Alcotest.(check bool) "mcf second" true
    (List.for_all (fun (n, c) -> n = "nab" || n = "mcf" || c < get "mcf") counts)

let test_spec_scale_parameter () =
  let small = Spec.find ~scale:0.5 "perlbench" in
  let big = Spec.find ~scale:1.0 "perlbench" in
  let calls p =
    let img = R2c_compiler.Driver.compile p in
    let proc = Process.start img in
    match Process.run proc with
    | Process.Exited 0 -> Process.calls proc
    | o -> Alcotest.failf "%s" (Process.outcome_to_string o)
  in
  Alcotest.(check bool) "scale halves work" true
    (calls small.Spec.program * 3 / 2 < calls big.Spec.program)

let test_webserver_differential () =
  List.iter
    (fun fl ->
      let p = Webserver.server fl ~requests:120 in
      let expected = interp_output p in
      Alcotest.(check (pair string int))
        "baseline" expected
        (machine_output (R2c_compiler.Driver.compile p));
      Alcotest.(check (pair string int))
        "full R2C" expected
        (machine_output (Pipeline.compile ~seed:5 (Dconfig.full ()) p)))
    [ `Nginx; `Apache ]

let test_webserver_apache_more_calls () =
  let calls fl =
    let img = R2c_compiler.Driver.compile (Webserver.server fl ~requests:100) in
    let p = Process.start img in
    match Process.run p with
    | Process.Exited 0 -> Process.calls p
    | o -> Alcotest.failf "%s" (Process.outcome_to_string o)
  in
  Alcotest.(check bool) "apache's hook chain costs calls" true
    (calls `Apache > calls `Nginx)

let test_saturation_curve () =
  let curve = Webserver.saturation_curve ~cpu_rate:100.0 ~connections:[ 1; 8; 24; 48; 96 ] in
  (* Monotone non-decreasing and capped at the CPU-bound rate. *)
  let rates = List.map snd curve in
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone rates);
  List.iter (fun r -> Alcotest.(check bool) "capped" true (r <= 100.0)) rates;
  Alcotest.(check (float 1e-9)) "saturates" 100.0 (List.nth rates 4)

let test_genprog_deterministic () =
  let a = Genprog.generate ~seed:9 ~funcs:30 in
  let b = Genprog.generate ~seed:9 ~funcs:30 in
  Alcotest.(check string) "same program" (Text.to_string a) (Text.to_string b);
  let c = Genprog.generate ~seed:10 ~funcs:30 in
  Alcotest.(check bool) "different seed differs" true (Text.to_string a <> Text.to_string c)

let test_genprog_validates () =
  List.iter
    (fun seed ->
      let p = Genprog.generate ~seed ~funcs:25 in
      match Validate.check p with
      | [] -> ()
      | errs ->
          Alcotest.failf "seed %d: %s" seed
            (String.concat "; " (List.map Validate.error_to_string errs)))
    [ 1; 2; 3; 4; 5 ]

let test_genprog_differential () =
  List.iter
    (fun seed ->
      let p = Genprog.generate ~seed ~funcs:40 in
      let expected = interp_output p in
      Alcotest.(check (pair string int))
        (Printf.sprintf "seed %d" seed)
        expected
        (machine_output (Pipeline.compile ~seed:(seed * 3) (Dconfig.full ()) p)))
    [ 11; 12; 13 ]

let test_browser_differential () =
  let p = R2c_workloads.Browser.program ~pages:4 in
  let expected = interp_output p in
  Alcotest.(check (pair string int))
    "baseline" expected
    (machine_output (R2c_compiler.Driver.compile p));
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check (pair string int))
        name expected
        (machine_output (Pipeline.compile ~seed:9 cfg p)))
    [
      ("full avx", Dconfig.full ());
      ("full push", Dconfig.full ~setup:Dconfig.Push ());
      ("full checked", Dconfig.full_checked);
    ]

let test_browser_unwind_depth () =
  (* The layout leaf reports its unwind-table frame count; under full R2C it
     must equal the interpreter's call depth (main + page loop functions +
     7 levels of bk_layout). *)
  let p = R2c_workloads.Browser.program ~pages:1 in
  let out, _ = interp_output p in
  let lines = String.split_on_char '\n' out in
  let depth = List.nth lines 2 in
  Alcotest.(check string) "depth is 8 frames" "8" depth

let test_vulnapp_stub_gadget_present () =
  (* The libc-model stubs must provide the classic gadget the ROP
     experiments rely on. *)
  let img = R2c_workloads.Vulnapp.build ~seed:2 R2c_core.Dconfig.baseline in
  let r = R2c_attacks.Reference.measure img in
  Alcotest.(check bool) "pop rdi; ret exists" true (r.R2c_attacks.Reference.pop_rdi <> None)

let suite =
  [
    ( "workloads",
      [
        Alcotest.test_case "spec names" `Quick test_spec_names;
        Alcotest.test_case "spec baseline differential" `Quick test_spec_baseline_differential;
        Alcotest.test_case "spec full R2C differential" `Quick test_spec_full_r2c_differential;
        Alcotest.test_case "spec call ordering" `Quick test_spec_call_ordering_matches_paper;
        Alcotest.test_case "spec scale parameter" `Quick test_spec_scale_parameter;
        Alcotest.test_case "webserver differential" `Quick test_webserver_differential;
        Alcotest.test_case "apache hook calls" `Quick test_webserver_apache_more_calls;
        Alcotest.test_case "saturation curve" `Quick test_saturation_curve;
        Alcotest.test_case "genprog deterministic" `Quick test_genprog_deterministic;
        Alcotest.test_case "genprog validates" `Quick test_genprog_validates;
        Alcotest.test_case "genprog differential" `Quick test_genprog_differential;
        Alcotest.test_case "stub gadget present" `Quick test_vulnapp_stub_gadget_present;
        Alcotest.test_case "browser differential" `Quick test_browser_differential;
        Alcotest.test_case "browser unwind depth" `Quick test_browser_unwind_depth;
      ] );
  ]
