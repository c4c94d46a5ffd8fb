(* The relocation-only load path. The loader copies each placed body's
   cached bytes and never forces [code_list]; tier 3 fetches from a
   predecode built from the same placement. Both are checked here against
   references derived from [code_list] alone: the per-byte pseudo-encoding
   of every listed instruction, and the dense table of every listed
   instruction plus the builtin entries. *)

open R2c_machine
module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Genprog = R2c_workloads.Genprog
module Selfcheck = R2c_analysis.Selfcheck
module Defenses = R2c_defenses.Defenses

let prog = lazy (Genprog.generate ~seed:11 ~funcs:40)
let coords cfg link = { Pipeline.cfg; body_seed = 5; link_seed = Some link }

let mapped_len (img : Image.t) =
  Addr.align_up (max img.text_len Addr.page_size) ~align:Addr.page_size

(* The text pages of a freshly loaded process, read permission-free. *)
let loaded_text (img : Image.t) =
  let cpu = Loader.load ~jit:false ~profile:Cost.epyc_rome img in
  String.init (mapped_len img) (fun i ->
      match Mem.peek_u8 cpu.Cpu.mem (img.text_base + i) with
      | Some b -> Char.chr b
      | None -> Alcotest.failf "text byte 0x%x unmapped" (img.text_base + i))

let reference_text (img : Image.t) =
  let b = Bytes.make (mapped_len img) '\000' in
  Array.iter
    (fun (addr, insn, len) ->
      for k = 0 to len - 1 do
        Bytes.set b (addr - img.text_base + k) (Char.chr (Image.encode_byte insn k))
      done)
    (Lazy.force img.code_list);
  Bytes.to_string b

let check_text what img =
  let got = loaded_text img and want = reference_text img in
  match Seq.find (fun i -> got.[i] <> want.[i]) (Seq.init (String.length want) Fun.id) with
  | None -> ()
  | Some i ->
      Alcotest.failf "%s: text byte 0x%x is %02x, code_list encodes %02x" what
        (img.text_base + i) (Char.code got.[i]) (Char.code want.[i])

let rotated cfg =
  let r = Pipeline.rerand_create () in
  let p = Lazy.force prog in
  ignore (Pipeline.compile_incremental r (coords cfg 100) p);
  fst (Pipeline.compile_incremental r (coords cfg 101) p)

let test_cold_text () =
  check_text "cold baseline" (Pipeline.compile_cold (coords Dconfig.baseline 100) (Lazy.force prog))

let test_selfcheck_text () =
  let img = Defenses.build_vulnapp Defenses.r2c_checked ~seed:4 in
  check_text "self-check mutated" (Selfcheck.apply Selfcheck.Drop_btra_postcheck img)

let test_rotated_xom_text () =
  let img = rotated (Dconfig.full ()) in
  Alcotest.(check bool) "full R2C text is execute-only" true (img.text_perm = Perm.xo);
  check_text "rotated full" img

(* Some function body crosses a page boundary, and its bytes land on both
   pages. *)
let test_straddling_function () =
  let img = Pipeline.compile_cold (coords (Dconfig.full ()) 100) (Lazy.force prog) in
  let straddles (f : Image.func_info) =
    Addr.page_of f.entry <> Addr.page_of (f.entry + f.code_len - 1)
  in
  match Array.find_opt straddles img.funcs with
  | None -> Alcotest.fail "no function straddles a page"
  | Some f ->
      let got = loaded_text img and want = reference_text img in
      let off = f.entry - img.text_base in
      Alcotest.(check string) (f.fname ^ " bytes across the page boundary")
        (String.sub want off f.code_len) (String.sub got off f.code_len)

let test_start_leaves_code_list () =
  let img = rotated (Dconfig.full ()) in
  ignore (Process.start img);
  Alcotest.(check bool) "code_list not forced by Process.start" false
    (Lazy.is_val img.code_list);
  Alcotest.(check bool) "code table not forced by Process.start" false (Lazy.is_val img.code)

let suite =
  [
    ( "loader",
      [
        Alcotest.test_case "cold image text = code_list encoding" `Quick test_cold_text;
        Alcotest.test_case "rotated XOM image text = code_list encoding" `Quick
          test_rotated_xom_text;
        Alcotest.test_case "page-straddling function" `Quick test_straddling_function;
        Alcotest.test_case "self-check clone text = code_list encoding" `Quick
          test_selfcheck_text;
        Alcotest.test_case "start leaves code_list unforced" `Quick test_start_leaves_code_list;
      ] );
  ]
