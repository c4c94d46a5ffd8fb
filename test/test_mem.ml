open R2c_machine

let check_fault name expected f =
  match f () with
  | exception Fault.Fault fault ->
      Alcotest.(check string) name expected (Fault.to_string fault)
  | _ -> Alcotest.failf "%s: expected a fault" name

let ro = { Perm.read = true; write = false; exec = false }

(* [len] bytes at [addr] through the checked byte reader. *)
let read_string m addr len = String.init len (fun i -> Char.chr (Mem.read_u8 m (addr + i)))

let test_map_rw () =
  let m = Mem.create () in
  Mem.map m 0x10000 8192 Perm.rw;
  Mem.write_u64 m 0x10008 0xdeadbeef;
  Alcotest.(check int) "round trip" 0xdeadbeef (Mem.read_u64 m 0x10008)

let test_zero_fill () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Alcotest.(check int) "zeroed" 0 (Mem.read_u64 m 0x10000)

let test_unmapped_read_faults () =
  let m = Mem.create () in
  check_fault "segv" "SIGSEGV: read at 0x666000" (fun () -> Mem.read_u64 m 0x666000)

let test_write_to_readonly_faults () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 ro;
  check_fault "segv" "SIGSEGV: write at 0x10000" (fun () -> Mem.write_u64 m 0x10000 1)

let test_execute_only_blocks_read () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Mem.write_u64 m 0x10000 42;
  Mem.protect m 0x10000 4096 Perm.xo;
  check_fault "xom read" "SIGSEGV: read at 0x10000" (fun () -> Mem.read_u64 m 0x10000);
  check_fault "xom write" "SIGSEGV: write at 0x10000" (fun () -> Mem.write_u64 m 0x10000 1)

let test_guard_page_fault_is_detection () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Mem.protect m 0x10000 4096 Perm.none;
  Mem.tag_guard m 0x10000 4096;
  (match Mem.read_u64 m 0x10040 with
  | exception Fault.Fault f ->
      Alcotest.(check bool) "is detection" true (Fault.is_detection f)
  | _ -> Alcotest.fail "expected fault");
  (* A plain segv is not a detection. *)
  match Mem.read_u64 m 0x999000 with
  | exception Fault.Fault f ->
      Alcotest.(check bool) "not detection" false (Fault.is_detection f)
  | _ -> Alcotest.fail "expected fault"

let test_cross_page_word () =
  let m = Mem.create () in
  Mem.map m 0x10000 8192 Perm.rw;
  let addr = 0x10000 + 4092 in
  Mem.write_u64 m addr 0x1122334455667788;
  Alcotest.(check int) "cross page" 0x1122334455667788 (Mem.read_u64 m addr)

let test_byte_access () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Mem.write_u8 m 0x10003 0xab;
  Alcotest.(check int) "byte" 0xab (Mem.read_u8 m 0x10003);
  (* Little-endian composition. *)
  Alcotest.(check int) "le word" (0xab lsl 24) (Mem.read_u64 m 0x10000)

let test_bytes_roundtrip () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Mem.write_bytes m 0x10010 (Bytes.of_string "hello world");
  Alcotest.(check string) "bytes" "hello world" (read_string m 0x10010 11)

let test_peek_ignores_perms () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Mem.write_u64 m 0x10000 7;
  Mem.protect m 0x10000 4096 Perm.none;
  Alcotest.(check (option int)) "peek" (Some 7) (Mem.peek_u64 m 0x10000);
  Alcotest.(check (option int)) "peek unmapped" None (Mem.peek_u64 m 0x999000)

let test_double_map_rejected () =
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Alcotest.check_raises "double map"
    (Invalid_argument "Mem.map: page 0x10000 already mapped") (fun () ->
      Mem.map m 0x10000 4096 Perm.rw)

let test_maxrss_tracking () =
  let m = Mem.create () in
  Mem.map m 0x10000 (16 * 4096) Perm.rw;
  Alcotest.(check int) "high water" 16 (Mem.max_mapped_pages m);
  Mem.protect m 0x10000 (16 * 4096) Perm.none;
  Mem.map m 0x40000 (4 * 4096) Perm.rw;
  Alcotest.(check int) "protect keeps pages, a map adds" 20 (Mem.max_mapped_pages m)

let test_tlb_invalidated_by_protect () =
  (* Regression: the direct-mapped page TLB caches decoded permission
     bits, so protect/tag_guard must flush it — a cache-warm entry from
     before the permission change must not be honoured afterwards. *)
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Mem.write_u64 m 0x10000 7;
  Alcotest.(check int) "warm read before protect" 7 (Mem.read_u64 m 0x10000);
  Mem.protect m 0x10000 4096 Perm.none;
  check_fault "read after mprotect none" "SIGSEGV: read at 0x10000" (fun () ->
      Mem.read_u64 m 0x10000);
  Mem.tag_guard m 0x10000 4096;
  match Mem.read_u64 m 0x10000 with
  | exception Fault.Fault f ->
      Alcotest.(check bool) "guard tag visible after warm entry" true (Fault.is_detection f)
  | _ -> Alcotest.fail "expected a guard fault"

let test_tlb_slot_aliasing () =
  (* 0x10000 and 0x50000 are exactly 64 pages apart, so they hash to the
     same slot of the 64-entry direct-mapped TLB. Interleaved accesses
     evict each other every time; data and permissions must stay per-page
     correct throughout. *)
  let m = Mem.create () in
  Mem.map m 0x10000 4096 Perm.rw;
  Mem.map m 0x50000 4096 ro;
  Mem.write_u64 m 0x10000 0xaaaa;
  for _ = 1 to 3 do
    Alcotest.(check int) "rw page data" 0xaaaa (Mem.read_u64 m 0x10000);
    Alcotest.(check int) "ro page data" 0 (Mem.read_u64 m 0x50000)
  done;
  check_fault "aliased slot keeps ro perms" "SIGSEGV: write at 0x50000" (fun () ->
      Mem.write_u64 m 0x50000 1);
  Mem.write_u64 m 0x10008 0xbbbb;
  Alcotest.(check int) "rw page still writable" 0xbbbb (Mem.read_u64 m 0x10008)

let test_addr_regions () =
  List.iter
    (fun (what, addr, want) -> Alcotest.(check bool) what true (Addr.region_of addr = want))
    [
      ("text", 0x40055d, Addr.Text);
      ("data", 0x5555_5555_7260, Addr.Data);
      ("heap", 0x5555_6000_1000, Addr.Heap);
      ("stack", 0x7fff_ffff_e3d0, Addr.Stack);
      ("unmapped", 0x10, Addr.Unmapped_region);
    ]

(* A blit that runs into a non-writable page faults where a byte loop
   would, having written the same prefix. *)
let test_blit_string_faults_like_write_u8 () =
  let setup () =
    let m = Mem.create () in
    Mem.map m 0x10000 8192 Perm.rw;
    Mem.protect m 0x11000 4096 Perm.xo;
    m
  in
  let s = String.init 64 (fun i -> Char.chr (i + 1)) in
  let addr = 0x11000 - 16 in
  let blit = setup () and loop = setup () in
  let fault_of f = match f () with exception Fault.Fault x -> Fault.to_string x | () -> "none" in
  let want =
    fault_of (fun () -> String.iteri (fun i c -> Mem.write_u8 loop (addr + i) (Char.code c)) s)
  in
  Alcotest.(check string) "fault" want (fault_of (fun () -> Mem.blit_string blit addr s));
  Alcotest.(check string) "same fault as write_u8" "SIGSEGV: write at 0x11000" want;
  for a = 0x10000 to 0x11fff do
    if Mem.peek_u8 blit a <> Mem.peek_u8 loop a then Alcotest.failf "byte 0x%x differs" a
  done;
  check_fault "unmapped" "SIGSEGV: write at 0x666000" (fun () -> Mem.blit_string blit 0x666000 s)

let test_blit_string_across_pages () =
  let m = Mem.create () in
  Mem.map m 0x10000 (4 * 4096) Perm.rw;
  let s = String.init 9000 (fun i -> Char.chr (i land 0xff)) in
  Mem.blit_string m 0x10ff0 s;
  Alcotest.(check string) "read back" s (read_string m 0x10ff0 9000)

(* Copy-on-write: every writer of one side — checked words and bytes, a
   page-spanning blit, a page-straddling poke, a bit flip — leaves the
   other side's bytes alone, in both directions, including a write whose
   page the TLB had cached as writable before the clone. *)
let test_clone_copy_on_write () =
  let m = Mem.create () in
  Mem.map m 0x10000 (3 * 4096) Perm.rw;
  Mem.map m 0x20000 4096 ro;
  Mem.write_u64 m 0x10008 42;
  Mem.write_u64 m 0x11008 43;
  let c = Mem.clone m in
  let snapshot mem = List.init (3 * 512) (fun k -> Mem.peek_u64 mem (0x10000 + (8 * k))) in
  let c0 = snapshot c in
  Mem.write_u64 m 0x10008 1;
  Mem.write_u8 m 0x11009 0xff;
  Mem.blit_string m 0x10ff0 (String.make 5000 'z');
  Mem.poke_u64 m 0x11ffc (-1);
  Mem.poke_u64 m 0x20000 7;
  Mem.flip_bit m ~addr:0x12010 ~bit:1;
  Alcotest.(check bool) "clone untouched" true (snapshot c = c0);
  Alcotest.(check (option int)) "clone ro page untouched" (Some 0) (Mem.peek_u64 c 0x20000);
  Alcotest.(check int) "clone reads its own" 42 (Mem.read_u64 c 0x10008);
  let m1 = snapshot m in
  Mem.write_u64 c 0x10010 5;
  Mem.flip_bit c ~addr:0x11008 ~bit:0;
  Alcotest.(check bool) "original untouched" true (snapshot m = m1);
  Alcotest.(check int) "original wrote" 1 (Mem.read_u64 m 0x10008);
  Mem.protect c 0x10000 4096 ro;
  Mem.write_u64 m 0x10000 9;
  check_fault "clone's protect is its own" "SIGSEGV: write at 0x10000" (fun () ->
      Mem.write_u64 c 0x10000 9);
  Alcotest.(check int) "max_mapped_pages carried" (Mem.max_mapped_pages m) (Mem.max_mapped_pages c)

(* Fresh maps share one zero page: writing one never shows through another
   memory's (or a later map's) unwritten pages, and sharing moves no
   permission check. *)
let test_zero_page_shared () =
  let a = Mem.create () and b = Mem.create () in
  Mem.map a 0x10000 4096 Perm.rw;
  Mem.map b 0x10000 4096 Perm.rw;
  Mem.write_u64 a 0x10100 0x77;
  Mem.blit_string a 0x10200 "abc";
  Alcotest.(check int) "other memory still zero" 0 (Mem.read_u64 b 0x10100);
  Mem.map a 0x30000 4096 Perm.rw;
  Alcotest.(check int) "later map still zero" 0 (Mem.read_u64 a 0x30100);
  Mem.map b 0x40000 4096 ro;
  check_fault "ro zero page" "SIGSEGV: write at 0x40008" (fun () -> Mem.write_u64 b 0x40008 1);
  Mem.protect b 0x10000 4096 Perm.none;
  Mem.tag_guard b 0x10000 4096;
  match Mem.write_u8 b 0x10010 1 with
  | exception Fault.Fault f ->
      Alcotest.(check bool) "guard write detected" true (Fault.is_detection f)
  | () -> Alcotest.fail "write to a guard page succeeded"

let suite =
  [
    ( "mem",
      [
        Alcotest.test_case "map + rw" `Quick test_map_rw;
        Alcotest.test_case "zero fill" `Quick test_zero_fill;
        Alcotest.test_case "unmapped read faults" `Quick test_unmapped_read_faults;
        Alcotest.test_case "readonly write faults" `Quick test_write_to_readonly_faults;
        Alcotest.test_case "execute-only blocks read" `Quick test_execute_only_blocks_read;
        Alcotest.test_case "guard page detection" `Quick test_guard_page_fault_is_detection;
        Alcotest.test_case "cross-page word" `Quick test_cross_page_word;
        Alcotest.test_case "byte access" `Quick test_byte_access;
        Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
        Alcotest.test_case "blit_string faults like write_u8" `Quick
          test_blit_string_faults_like_write_u8;
        Alcotest.test_case "blit_string across pages" `Quick test_blit_string_across_pages;
        Alcotest.test_case "peek ignores perms" `Quick test_peek_ignores_perms;
        Alcotest.test_case "double map rejected" `Quick test_double_map_rejected;
        Alcotest.test_case "maxrss tracking" `Quick test_maxrss_tracking;
        Alcotest.test_case "tlb invalidated by protect" `Quick test_tlb_invalidated_by_protect;
        Alcotest.test_case "tlb slot aliasing" `Quick test_tlb_slot_aliasing;
        Alcotest.test_case "address regions" `Quick test_addr_regions;
        Alcotest.test_case "clone is copy-on-write" `Quick test_clone_copy_on_write;
        Alcotest.test_case "zero page shared until written" `Quick test_zero_page_shared;
      ] );
  ]
