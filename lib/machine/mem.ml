(* Copy-on-write: a page whose [shared] flag is set may hold the same
   bytes as another page — the global [zero_page] every [map] starts
   from, a page of a {!clone}, or what its mapping's [supply] built —
   and must get its own copy before its first write. The flag is never
   cleared on the other side when one side copies: without reference
   counts, a page once shared stays copy-on-write, which costs at most
   one spare copy. A page of {!map_from} starts [unbuilt], and is
   shared. *)
type page = {
  mutable perm : Perm.t;
  mutable guard : bool;
  mutable data : Bytes.t;
  mutable shared : bool;
  supply : int -> Bytes.t option;
}

(* Never written: every write path unshares first. Domains may share it. *)
let zero_page = Bytes.make Addr.page_size '\000'

(* Compared physically: the [data] of a page not built yet. *)
let unbuilt = Bytes.create 0

(* Direct-mapped software TLB. Each slot caches one page's data bytes plus
   its *decoded* permission bits, so the hot accessors never chase the
   page record or the [Perm.t] under it. Because the permission bits are
   copied out, every in-place page mutation — [map], [unmap], and crucially
   [protect]/[tag_guard], which change [perm]/[guard] without touching the
   page table — must invalidate the TLB or a read could be served under a
   permission that no longer exists. A shared page is cached with
   [e_write = false], so the hot writers keep their single permission
   test and a copy-on-write fault takes the same slow path as a real
   one; an unbuilt page is cached neither readable nor writable, so its
   first read or write takes that path too and builds it there. *)
type tlb_entry = {
  mutable e_index : int;  (* cached page index; -1 = invalid *)
  mutable e_data : Bytes.t;
  mutable e_read : bool;
  mutable e_write : bool;
  mutable e_exec : bool;
  mutable e_guard : bool;
}

let tlb_slots = 64
let tlb_mask = tlb_slots - 1

type t = {
  pages : (int, page) Hashtbl.t;
  tlb : tlb_entry array;
  mutable max_resident : int;
}

let fresh_tlb () =
  Array.init tlb_slots (fun _ ->
      {
        e_index = -1;
        e_data = unbuilt;
        e_read = false;
        e_write = false;
        e_exec = false;
        e_guard = false;
      })

(* The page table starts with 256 buckets, the most a minor-heap block
   holds. A larger first table is allocated in the major heap, and then
   every page record it points to — and through their [supply] closures
   the image they map — survives the next minor collection, even when
   the process is already dropped: a rotation that starts a process and
   drops it would promote the whole image. *)
let create () = { pages = Hashtbl.create 256; tlb = fresh_tlb (); max_resident = 0 }

let tlb_invalidate t =
  for i = 0 to tlb_slots - 1 do
    t.tlb.(i).e_index <- -1
  done

(* What a lookup of an unmapped page returns. It permits nothing, so the
   accessors' permission test sends it down the slow path with every
   other denied access. Never written. *)
let no_entry =
  { e_index = -1; e_data = unbuilt; e_read = false; e_write = false; e_exec = false; e_guard = false }

(* Miss path: probe the page table and refill the direct-mapped slot. *)
let tlb_fill t index =
  match Hashtbl.find_opt t.pages index with
  | None -> no_entry
  | Some p ->
      let e = t.tlb.(index land tlb_mask) in
      e.e_index <- index;
      e.e_data <- p.data;
      e.e_read <- p.perm.Perm.read && p.data != unbuilt;
      e.e_write <- p.perm.Perm.write && not p.shared;
      e.e_exec <- p.perm.Perm.exec;
      e.e_guard <- p.guard;
      e

(* Returns the slot itself, so the hot accessors allocate nothing. *)
let tlb_lookup t index =
  let e = t.tlb.(index land tlb_mask) in
  if e.e_index = index then e else tlb_fill t index

let build index p =
  if p.data == unbuilt then p.data <- Option.value (p.supply index) ~default:zero_page

(* Permission-free: its bytes are about to be observed. *)
let find_page t index =
  match Hashtbl.find_opt t.pages index with
  | Some p as found ->
      build index p;
      found
  | None -> None

(* The copy in copy-on-write: [p] (page [index]) gets bytes of its own,
   and a TLB slot still caching the shared ones is dropped. *)
let unshare t index p =
  if p.shared then begin
    p.data <- Bytes.copy p.data;
    p.shared <- false;
    let e = t.tlb.(index land tlb_mask) in
    if e.e_index = index then e.e_index <- -1
  end

let clone t =
  let pages = Hashtbl.copy t.pages in
  Hashtbl.filter_map_inplace
    (fun _ p ->
      p.shared <- true;
      Some { p with shared = true })
    pages;
  (* The source's cached write permissions predate the sharing. *)
  tlb_invalidate t;
  { pages; tlb = fresh_tlb (); max_resident = t.max_resident }

let page_range addr len =
  assert (len > 0);
  (Addr.page_of addr, Addr.page_of (addr + len - 1))

let map_pages t addr len perm data supply =
  let first, last = page_range addr len in
  for i = first to last do
    if Hashtbl.mem t.pages i then
      invalid_arg (Printf.sprintf "Mem.map: page 0x%x already mapped" (i lsl Addr.page_shift));
    Hashtbl.replace t.pages i { perm; guard = false; data; shared = true; supply }
  done;
  tlb_invalidate t;
  t.max_resident <- max t.max_resident (Hashtbl.length t.pages)

let map t addr len perm = map_pages t addr len perm zero_page (fun _ -> None)
let map_from t addr len perm supply = map_pages t addr len perm unbuilt supply

let protect t addr len perm =
  let first, last = page_range addr len in
  for i = first to last do
    match Hashtbl.find_opt t.pages i with
    | Some p -> p.perm <- perm
    | None ->
        invalid_arg (Printf.sprintf "Mem.protect: page 0x%x unmapped" (i lsl Addr.page_shift))
  done;
  tlb_invalidate t

let tag_guard t addr len =
  let first, last = page_range addr len in
  for i = first to last do
    match Hashtbl.find_opt t.pages i with
    | Some p -> p.guard <- true
    | None ->
        invalid_arg
          (Printf.sprintf "Mem.tag_guard: page 0x%x unmapped" (i lsl Addr.page_shift))
  done;
  tlb_invalidate t

let fault_access addr access guard =
  if guard then Fault.raise_fault (Guard_page { addr; access })
  else Fault.raise_fault (Segv { addr; access })

(* A denied access is either the first read or write of a permitted page
   not built yet, or the first write to a writable page whose bytes are
   shared — build it, copy it for a write, and serve the access — or a
   real fault, which builds nothing. *)
let denied t addr (access : Fault.access) e =
  let index = Addr.page_of addr in
  let permitted (p : page) =
    match access with Read -> p.perm.Perm.read | Write -> p.perm.Perm.write | Exec -> false
  in
  match Hashtbl.find_opt t.pages index with
  | Some p when permitted p -> (
      build index p;
      if access = Write then unshare t index p;
      tlb_fill t index)
  | _ -> fault_access addr access e.e_guard

(* An unmapped page's [no_entry] permits nothing and is no guard, so
   [denied] raises a plain SIGSEGV for it. *)
let checked_entry t addr (access : Fault.access) =
  let e = tlb_lookup t (Addr.page_of addr) in
  let allowed =
    match access with
    | Read -> e.e_read
    | Write -> e.e_write
    | Exec -> e.e_exec
  in
  if allowed then e else denied t addr access e

(* The interpreter's per-fetch exec probe. Matches the historical
   per-page permission check bit for bit: an exec violation is always a plain
   SIGSEGV, never a guard-page detection, even on a tagged page. *)
let check_exec t addr =
  if not (tlb_lookup t (Addr.page_of addr)).e_exec then
    Fault.raise_fault (Segv { addr; access = Exec })

let read_u8 t addr =
  let e = checked_entry t addr Read in
  Char.code (Bytes.unsafe_get e.e_data (Addr.page_offset addr))

let write_u8 t addr v =
  let e = checked_entry t addr Write in
  Bytes.unsafe_set e.e_data (Addr.page_offset addr) (Char.unsafe_chr (v land 0xff))

(* Word accessors: an 8-aligned word can never cross a page, so the
   aligned fast path goes straight to [Bytes.get/set_int64_le] with no
   boundary test; unaligned in-page words take the same single-probe path
   after the boundary test, and only page-straddling words fall back to
   byte-at-a-time. *)
let read_u64 t addr =
  if addr land 7 = 0 then
    let e = checked_entry t addr Read in
    Int64.to_int (Bytes.get_int64_le e.e_data (Addr.page_offset addr))
    (* The int64->int truncation drops bit 63; our address space and
       workload arithmetic never exercise it. *)
  else
    let off = Addr.page_offset addr in
    if off <= Addr.page_size - 8 then
      let e = checked_entry t addr Read in
      Int64.to_int (Bytes.get_int64_le e.e_data off)
    else begin
      let v = ref 0 in
      for i = 7 downto 0 do
        v := (!v lsl 8) lor read_u8 t (addr + i)
      done;
      !v
    end

let write_u64 t addr v =
  if addr land 7 = 0 then
    let e = checked_entry t addr Write in
    Bytes.set_int64_le e.e_data (Addr.page_offset addr) (Int64.of_int v)
  else
    let off = Addr.page_offset addr in
    if off <= Addr.page_size - 8 then
      let e = checked_entry t addr Write in
      Bytes.set_int64_le e.e_data off (Int64.of_int v)
    else
      for i = 0 to 7 do
        write_u8 t (addr + i) ((v lsr (8 * i)) land 0xff)
      done

let peek_u8 t addr =
  match find_page t (Addr.page_of addr) with
  | None -> None
  | Some p -> Some (Char.code (Bytes.unsafe_get p.data (Addr.page_offset addr)))

let peek_u64 t addr =
  let off = Addr.page_offset addr in
  if off <= Addr.page_size - 8 then
    match find_page t (Addr.page_of addr) with
    | None -> None
    | Some p -> Some (Int64.to_int (Bytes.get_int64_le p.data off))
  else begin
    let rec bytes i acc =
      if i < 0 then Some acc
      else
        match peek_u8 t (addr + i) with
        | None -> None
        | Some b -> bytes (i - 1) ((acc lsl 8) lor b)
    in
    bytes 7 0
  end

(* The permission-free writers: the page of [addr], unshared. *)
let owned_page t addr =
  let index = Addr.page_of addr in
  match find_page t index with
  | None -> None
  | Some p ->
      unshare t index p;
      Some p

let poke_u64 t addr v =
  match owned_page t addr with
  | None -> invalid_arg (Printf.sprintf "Mem.poke_u64: 0x%x unmapped" addr)
  | Some p ->
      let off = Addr.page_offset addr in
      if off <= Addr.page_size - 8 then Bytes.set_int64_le p.data off (Int64.of_int v)
      else
        for i = 0 to 7 do
          let b = (v lsr (8 * i)) land 0xff in
          match owned_page t (addr + i) with
          | Some q -> Bytes.unsafe_set q.data (Addr.page_offset (addr + i)) (Char.chr b)
          | None -> invalid_arg "Mem.poke_u64: crosses unmapped page"
        done

let writable_page_addrs t =
  Hashtbl.fold
    (fun idx p acc -> if p.perm.Perm.write then (idx lsl Addr.page_shift) :: acc else acc)
    t.pages []
  |> List.sort compare

let flip_bit t ~addr ~bit =
  match owned_page t addr with
  | None -> invalid_arg (Printf.sprintf "Mem.flip_bit: 0x%x unmapped" addr)
  | Some p ->
      let off = Addr.page_offset addr in
      let c = Char.code (Bytes.unsafe_get p.data off) in
      Bytes.unsafe_set p.data off (Char.unsafe_chr (c lxor (1 lsl (bit land 7))))

let page_perms t =
  Hashtbl.fold (fun idx p acc -> (idx lsl Addr.page_shift, p.perm, p.guard) :: acc) t.pages []
  |> List.sort compare

let guard_page_addrs t =
  Hashtbl.fold
    (fun idx p acc -> if p.guard then (idx lsl Addr.page_shift) :: acc else acc)
    t.pages []
  |> List.sort compare

let max_mapped_pages t = t.max_resident
