open R2c_machine

let fresh () =
  let m = Mem.create () in
  (m, Heap.create m ~base:Addr.heap_base)

let test_malloc_basic () =
  let _, h = fresh () in
  let a = Heap.malloc h 64 in
  Alcotest.(check bool) "in heap region" true (Addr.region_of a = Addr.Heap);
  Alcotest.(check int) "aligned 16" 0 (a land 15);
  Alcotest.(check int) "size" 64 (Heap.live_bytes h)

let test_malloc_distinct () =
  let _, h = fresh () in
  let a = Heap.malloc h 32 and b = Heap.malloc h 32 in
  Alcotest.(check bool) "distinct" true (a <> b)

let test_malloc_maps_memory () =
  let m, h = fresh () in
  let a = Heap.malloc h 128 in
  Mem.write_u64 m a 99;
  Alcotest.(check int) "usable" 99 (Mem.read_u64 m a)

let test_free_and_reuse () =
  let _, h = fresh () in
  let a = Heap.malloc h 64 in
  Heap.free h a;
  let b = Heap.malloc h 64 in
  Alcotest.(check int) "first fit reuses" a b

let test_free_unknown_rejected () =
  let _, h = fresh () in
  Alcotest.check_raises "bad free"
    (Invalid_argument "Heap.free: 0x55555800 is not a live block") (fun () ->
      Heap.free h 0x55555800)

let test_malloc_pages_alignment () =
  let _, h = fresh () in
  let _ = Heap.malloc h 24 in
  let p = Heap.malloc_pages h 1 in
  Alcotest.(check int) "page aligned" 0 (Addr.page_offset p);
  (* The 24-byte block rounds to 32. *)
  Alcotest.(check int) "page sized" Addr.page_size (Heap.live_bytes h - 32)

let test_unfreed_page_not_reused () =
  let m, h = fresh () in
  let p = Heap.malloc_pages h 1 in
  (* Allocate a lot afterwards: none of it may land in p's page. *)
  for _ = 1 to 200 do
    let a = Heap.malloc h 48 in
    Alcotest.(check bool) "outside guard page" true
      (Addr.page_of a <> Addr.page_of p || a >= p + Addr.page_size)
  done;
  ignore m

let test_live_bytes () =
  let _, h = fresh () in
  let a = Heap.malloc h 100 in
  (* 100 rounds to 112. *)
  Alcotest.(check int) "live" 112 (Heap.live_bytes h);
  Heap.free h a;
  Alcotest.(check int) "after free" 0 (Heap.live_bytes h)

let test_fragmentation_split () =
  let _, h = fresh () in
  let a = Heap.malloc h 256 in
  Heap.free h a;
  let b = Heap.malloc h 64 in
  let c = Heap.malloc h 64 in
  (* Both carved from the freed block. *)
  Alcotest.(check bool) "b from split" true (b = a);
  Alcotest.(check bool) "c from remainder" true (c >= a && c < a + 256)

let suite =
  [
    ( "heap",
      [
        Alcotest.test_case "malloc basic" `Quick test_malloc_basic;
        Alcotest.test_case "malloc distinct" `Quick test_malloc_distinct;
        Alcotest.test_case "malloc maps memory" `Quick test_malloc_maps_memory;
        Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
        Alcotest.test_case "free unknown rejected" `Quick test_free_unknown_rejected;
        Alcotest.test_case "malloc_pages alignment" `Quick test_malloc_pages_alignment;
        Alcotest.test_case "unfreed page not reused" `Quick test_unfreed_page_not_reused;
        Alcotest.test_case "live bytes" `Quick test_live_bytes;
        Alcotest.test_case "fragmentation split" `Quick test_fragmentation_split;
      ] );
  ]
