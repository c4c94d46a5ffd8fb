(* Tier 3: compiling by default, never compiling with [~jit:false] or
   R2C_JIT=0. An attached injector forces the reference tier anyway, so no
   runner is attached under injection. *)
let arm ?inject ?jit ?jit_cache ?jit_stats cpu =
  let want = match jit with Some b -> b | None -> Jit.enabled () in
  if Option.is_none inject then
    if want then ignore (Jit.attach ?cache:jit_cache ?stats:jit_stats cpu)
    else ignore (Jit.attach ~config:Jit.never cpu);
  cpu

let load ?(strict_align = false) ?inject ?jit ?jit_cache ?jit_stats ~profile (img : Image.t) =
  let mem = Mem.create () in
  (* Text and data map the image's pages, built on first observation and
     shared by every process of the image (Image.text_page/data_page). *)
  let map base len perm supply =
    Mem.map_from mem base (Addr.align_up (max len Addr.page_size) ~align:Addr.page_size) perm supply
  in
  map img.Image.text_base img.Image.text_len img.Image.text_perm (Image.text_page img);
  map img.Image.data_base img.Image.data_len Perm.rw (Image.data_page img);
  (* Stack. *)
  let stack_len = Addr.align_up img.Image.stack_bytes ~align:Addr.page_size in
  Mem.map mem (Addr.stack_top - stack_len) stack_len Perm.rw;
  let rsp = Addr.stack_top - 64 in
  assert (rsp land 15 = 0);
  let heap = Heap.create mem ~base:img.Image.heap_base in
  arm ?inject ?jit ?jit_cache ?jit_stats
    (Cpu.create ~strict_align ?inject ~profile ~mem ~heap img ~rip:img.Image.entry ~rsp)

let clone ?inject ?jit ?jit_stats cpu = arm ?inject ?jit ?jit_stats (Cpu.clone ?inject cpu)
