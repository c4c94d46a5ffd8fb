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
  (* Text: the placed bodies' cached bytes are copied in while the pages
     are writable, then sealed. *)
  let text_len = Addr.align_up (max img.Image.text_len Addr.page_size) ~align:Addr.page_size in
  Mem.map mem img.Image.text_base text_len Perm.rw;
  Array.iter
    (fun (c : Image.chunk) -> Mem.blit_string mem c.c_entry c.c_body.b_text)
    img.Image.chunks;
  Mem.protect mem img.Image.text_base text_len img.Image.text_perm;
  (* Data. *)
  let data_len = Addr.align_up (max img.Image.data_len Addr.page_size) ~align:Addr.page_size in
  Mem.map mem img.Image.data_base data_len Perm.rw;
  let words = Image.force img.Image.data_words in
  for k = 0 to (Array.length words / 2) - 1 do
    Mem.write_u64 mem words.(2 * k) words.((2 * k) + 1)
  done;
  Array.iter (fun (addr, s) -> Mem.blit_string mem addr s) (Image.force img.Image.data_bytes);
  (* Stack. *)
  let stack_len = Addr.align_up img.Image.stack_bytes ~align:Addr.page_size in
  Mem.map mem (Addr.stack_top - stack_len) stack_len Perm.rw;
  let rsp = Addr.stack_top - 64 in
  assert (rsp land 15 = 0);
  let heap = Heap.create mem ~base:img.Image.heap_base in
  arm ?inject ?jit ?jit_cache ?jit_stats
    (Cpu.create ~strict_align ?inject ~profile ~mem ~heap img ~rip:img.Image.entry ~rsp)

let clone ?inject ?jit ?jit_stats cpu = arm ?inject ?jit ?jit_stats (Cpu.clone ?inject cpu)
