(* Blocks carry no in-memory header: metadata lives in a side table keyed by
   block address. This keeps simulated memory free of allocator noise (the
   paper's pointer clustering sees only application data) while preserving
   the reuse behaviour that matters: freed blocks return to a first-fit free
   list, live blocks pin their pages. *)

type free_block = { faddr : int; fsize : int }

type t = {
  mem : Mem.t;
  base : int;
  mutable top : int;  (* first unallocated address *)
  mutable mapped_to : int;  (* first unmapped page boundary *)
  mutable free_list : free_block list;
  sizes : (int, int) Hashtbl.t;  (* live block -> size *)
  mutable live : int;
}

let create mem ~base =
  { mem; base; top = base; mapped_to = base; free_list = []; sizes = Hashtbl.create 256; live = 0 }

let clone t ~mem = { t with mem; sizes = Hashtbl.copy t.sizes }

let ensure_mapped t upto =
  if upto > t.mapped_to then begin
    let map_to = Addr.align_up upto ~align:Addr.page_size in
    if map_to > Addr.heap_limit then raise Out_of_memory;
    Mem.map t.mem t.mapped_to (map_to - t.mapped_to) Perm.rw;
    t.mapped_to <- map_to
  end

let register t addr size =
  Hashtbl.replace t.sizes addr size;
  t.live <- t.live + size;
  addr

let take_fit t size =
  (* First fit; split the remainder back when it is worth keeping. *)
  let rec go acc = function
    | [] -> None
    | b :: rest when b.fsize >= size ->
        let remainder =
          if b.fsize - size >= 32 then [ { faddr = b.faddr + size; fsize = b.fsize - size } ]
          else []
        in
        t.free_list <- List.rev_append acc (remainder @ rest);
        Some b.faddr
    | b :: rest -> go (b :: acc) rest
  in
  go [] t.free_list

let malloc t size =
  if size <= 0 then invalid_arg "Heap.malloc: non-positive size";
  let size = Addr.align_up size ~align:16 in
  match take_fit t size with
  | Some addr -> register t addr size
  | None ->
      let addr = t.top in
      ensure_mapped t (addr + size);
      t.top <- addr + size;
      register t addr size

let malloc_pages t n =
  if n <= 0 then invalid_arg "Heap.malloc_pages: non-positive count";
  let size = n * Addr.page_size in
  let addr = Addr.align_up t.top ~align:Addr.page_size in
  (* The alignment gap is returned to the free list rather than leaked. *)
  if addr > t.top then
    t.free_list <- { faddr = t.top; fsize = addr - t.top } :: t.free_list;
  ensure_mapped t (addr + size);
  t.top <- addr + size;
  register t addr size

let free t addr =
  match Hashtbl.find_opt t.sizes addr with
  | None -> invalid_arg (Printf.sprintf "Heap.free: 0x%x is not a live block" addr)
  | Some size ->
      Hashtbl.remove t.sizes addr;
      t.live <- t.live - size;
      t.free_list <- { faddr = addr; fsize = size } :: t.free_list

let live_bytes t = t.live

let brk t = t.top
