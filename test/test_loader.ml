(* The load path. The loader maps the image's text and data without
   building their bytes; each page is built on the first access that
   observes it, once per image, and shared copy-on-write by every process
   of the image. The loaded memory is checked here against references
   built eagerly and independently of it: the text against the
   pseudo-encoding of every instruction [Image.iter_insns] yields, and
   every page against the old eager load (zero pages, each chunk's bytes
   at its entry, the data words, then the byte runs). Tier 3 fetches from a
   predecode built from the same placement. *)

open R2c_machine
module Pipeline = R2c_core.Pipeline
module Dconfig = R2c_core.Dconfig
module Genprog = R2c_workloads.Genprog
module Vulnapp = R2c_workloads.Vulnapp
module Fleetapp = R2c_workloads.Fleetapp
module Spec = R2c_workloads.Spec
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
  Image.iter_insns img (fun addr insn len ->
      for k = 0 to len - 1 do
        Bytes.set b (addr - img.text_base + k) (Char.chr (Image.encode_byte insn k))
      done);
  Bytes.to_string b

let check_text what img =
  let got = loaded_text img and want = reference_text img in
  match Seq.find (fun i -> got.[i] <> want.[i]) (Seq.init (String.length want) Fun.id) with
  | None -> ()
  | Some i ->
      Alcotest.failf "%s: text byte 0x%x is %02x, the instruction there encodes %02x" what
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

let test_start_builds_no_fetch_table () =
  let img = rotated (Dconfig.full ()) in
  ignore (Process.start img);
  Alcotest.(check bool) "fetch table not built by Process.start" true
    (Atomic.get img.code = None)

(* The unwind and checked-site tables are read only by the unwinder and
   the static tools: a rotation and a start leave their cell unforced,
   and the first read builds them. *)
let test_start_builds_no_site_table () =
  let img = rotated Dconfig.full_checked in
  ignore (Process.start img);
  Alcotest.(check bool) "site tables not built by a rotation or Process.start" false
    (Lazy.is_val img.sites);
  Alcotest.(check bool) "the first read finds checked sites" true
    (Hashtbl.length (Image.sites img).checked_sites > 0)

let load img = (Loader.load ~jit:false ~profile:Cost.epyc_rome img).Cpu.mem

(* Every mapped page of [m]: base, permission, guard tag and bytes, read
   permission-free (which builds it). *)
let pages m =
  List.map
    (fun (base, perm, guard) ->
      let bytes =
        String.init Addr.page_size (fun i ->
            match Mem.peek_u8 m (base + i) with
            | Some b -> Char.chr b
            | None -> Alcotest.failf "byte 0x%x unmapped" (base + i))
      in
      (base, perm, guard, bytes))
    (Mem.page_perms m)

(* The pages a process of [img] starts with, as the eager loader wrote
   them: text sealed with the image's permission, data and stack
   read-write, no guard tags. *)
let reference_pages (img : Image.t) =
  let region base len perm fill =
    let b = Bytes.make (Addr.align_up (max len Addr.page_size) ~align:Addr.page_size) '\000' in
    fill b;
    List.init (Bytes.length b / Addr.page_size) (fun k ->
        let off = k * Addr.page_size in
        (base + off, perm, false, Bytes.sub_string b off Addr.page_size))
  in
  let text b =
    Array.iter
      (fun (c : Image.chunk) ->
        let s = c.c_body.b_text in
        Bytes.blit_string s 0 b (c.c_entry - img.text_base) (String.length s))
      img.chunks
  in
  let data b =
    let words = Image.force img.data_words in
    for k = 0 to (Array.length words / 2) - 1 do
      Bytes.set_int64_le b (words.(2 * k) - img.data_base) (Int64.of_int words.((2 * k) + 1))
    done;
    Array.iter
      (fun (a, s) -> Bytes.blit_string s 0 b (a - img.data_base) (String.length s))
      (Image.force img.data_bytes)
  in
  let stack_len = Addr.align_up img.stack_bytes ~align:Addr.page_size in
  List.sort compare
    (region img.text_base img.text_len img.text_perm text
    @ region img.data_base img.data_len Perm.rw data
    @ region (Addr.stack_top - stack_len) stack_len Perm.rw ignore)

let check_pages what want got =
  Alcotest.(check int) (what ^ ": mapped pages") (List.length want) (List.length got);
  List.iter2
    (fun (base, perm, guard, bytes) (base', perm', guard', bytes') ->
      if base <> base' then Alcotest.failf "%s: page 0x%x mapped, want 0x%x" what base' base;
      if perm <> perm' || guard <> guard' then
        Alcotest.failf "%s: page 0x%x is %s%s, want %s%s" what base (Perm.to_string perm')
          (if guard' then " guard" else "") (Perm.to_string perm)
          (if guard then " guard" else "");
      match Seq.find (fun i -> bytes.[i] <> bytes'.[i]) (Seq.init Addr.page_size Fun.id) with
      | None -> ()
      | Some i ->
          Alcotest.failf "%s: byte 0x%x is %02x, the eager load wrote %02x" what (base + i)
            (Char.code bytes'.[i]) (Char.code bytes.[i]))
    want got

let demand_images () =
  let mcf = (Spec.find "mcf").Spec.program in
  List.concat_map
    (fun (name, cfg) ->
      [
        ("vulnapp/" ^ name, Vulnapp.build ~seed:3 cfg);
        ("fleetapp/" ^ name, Fleetapp.build ~seed:3 cfg);
        ("mcf/" ^ name, Pipeline.compile ~seed:3 cfg mcf);
      ])
    Dconfig.named

let test_demand_equals_eager () =
  List.iter
    (fun (what, img) ->
      let m = load img in
      let want = reference_pages img in
      check_pages what want (pages m);
      Alcotest.(check int) (what ^ ": max_mapped_pages") (List.length want) (Mem.max_mapped_pages m))
    (demand_images ())

let nothing_built what (img : Image.t) =
  Alcotest.(check bool) (what ^ ": data_words unforced") false (Lazy.is_val img.data_words);
  Alcotest.(check bool) (what ^ ": no data page built") true (Atomic.get img.data_pages = None);
  Alcotest.(check bool) (what ^ ": no text page built") true
    (Array.for_all (fun c -> Atomic.get c = None) img.text_pages)

let test_start_builds_nothing () =
  let img = rotated (Dconfig.full ()) in
  ignore (Process.start img);
  nothing_built "rotated full" img

(* Under full R2C text is execute-only: a whole run observes its data and
   never a text byte. *)
let test_full_run_builds_no_text () =
  let img = Pipeline.compile ~seed:3 (Dconfig.full ()) (Spec.find "mcf").Spec.program in
  let p = Process.start img in
  (match Process.run p with
  | Process.Exited 0 -> ()
  | o -> Alcotest.failf "mcf under full: %s" (Process.outcome_to_string o));
  Alcotest.(check bool) "data pages built" true (Atomic.get img.data_pages <> None);
  Alcotest.(check bool) "no text page built" true
    (Array.for_all (fun c -> Atomic.get c = None) img.text_pages)

let test_two_domains_one_image () =
  let img = rotated (Dconfig.full ()) in
  let read () = Domain.spawn (fun () -> pages (load img)) in
  let a = read () and b = read () in
  let a = Domain.join a and b = Domain.join b in
  check_pages "domain 1" (reference_pages img) a;
  check_pages "domain 2" a b

(* A write reaches only the memory it was made through: the first write
   to a page built from the image copies it, checked or permission-free,
   so neither a sibling process nor a later one sees it. *)
let test_writes_stay_private () =
  let img = Vulnapp.build ~seed:3 Dconfig.baseline in
  let a = (Image.force img.data_words).(0) in
  let b = img.data_base + (Addr.align_up img.data_len ~align:Addr.page_size) - 8 in
  let word m addr = Option.get (Mem.peek_u64 m addr) in
  let m0 = load img in
  let a0 = word m0 a and b0 = word m0 b in
  let m1 = load img and m2 = load img in
  Alcotest.(check int) "checked read" a0 (Mem.read_u64 m1 a);
  Mem.write_u64 m1 a (a0 + 1);
  Mem.flip_bit m2 ~addr:b ~bit:0;
  Mem.poke_u64 m2 a (a0 + 2);
  let m3 = load img in
  Alcotest.(check (list int)) "writer" [ a0 + 1; b0 ] [ word m1 a; word m1 b ];
  Alcotest.(check (list int)) "sibling" [ a0 + 2; b0 lxor 1 ] [ word m2 a; word m2 b ];
  Alcotest.(check (list int)) "before" [ a0; b0 ] [ word m0 a; word m0 b ];
  Alcotest.(check (list int)) "after" [ a0; b0 ] [ word m3 a; word m3 b ]

(* A mutant image must not serve its parent's pages: every page of the
   parent is built first, so a copied memo cell would show. *)
let test_mutants_get_fresh_pages () =
  let img = Defenses.build_vulnapp Defenses.r2c_checked ~seed:4 in
  let m = load img in
  ignore (pages m);
  let planted = Selfcheck.apply Selfcheck.Plant_code_pointer img in
  let words = Image.force planted.data_words in
  let n = Array.length words in
  let addr = words.(n - 2) and entry = words.(n - 1) in
  Alcotest.(check (option int)) "planted pointer loaded" (Some entry)
    (Mem.peek_u64 (load planted) addr);
  Alcotest.(check bool) "parent's memory lacks it" true (Mem.peek_u64 m addr <> Some entry);
  let dropped = Selfcheck.apply Selfcheck.Drop_btra_postcheck img in
  Alcotest.(check bool) "the mutant's text differs" true (loaded_text dropped <> loaded_text img);
  check_text "NOP'd mutant" dropped

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
        Alcotest.test_case "Process.start builds no fetch table" `Quick
          test_start_builds_no_fetch_table;
        Alcotest.test_case "Process.start builds no site table" `Quick
          test_start_builds_no_site_table;
        Alcotest.test_case "demand-built pages = eager load, all configs" `Quick
          test_demand_equals_eager;
        Alcotest.test_case "start builds no page" `Quick test_start_builds_nothing;
        Alcotest.test_case "full run builds no text page" `Quick test_full_run_builds_no_text;
        Alcotest.test_case "two domains, one fresh image" `Quick test_two_domains_one_image;
        Alcotest.test_case "writes stay private" `Quick test_writes_stay_private;
        Alcotest.test_case "mutants get fresh pages" `Quick test_mutants_get_fresh_pages;
      ] );
  ]
