type t = {
  tags : int array;  (* -1 = invalid *)
  lines : int;
  line_shift : int;
  mutable miss_count : int;
  mutable access_count : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~lines ~line_bytes =
  assert (lines > 0 && lines land (lines - 1) = 0);
  assert (line_bytes > 0 && line_bytes land (line_bytes - 1) = 0);
  {
    tags = Array.make lines (-1);
    lines;
    line_shift = log2 line_bytes;
    miss_count = 0;
    access_count = 0;
  }

let access t ~addr ~len =
  assert (len > 0);
  let first = addr lsr t.line_shift in
  let last = (addr + len - 1) lsr t.line_shift in
  if first = last then begin
    (* Single-line fetch — the overwhelmingly common case for our short
       instructions — skips the loop and the miss accumulator. *)
    t.access_count <- t.access_count + 1;
    let slot = first land (t.lines - 1) in
    if t.tags.(slot) <> first then begin
      t.tags.(slot) <- first;
      t.miss_count <- t.miss_count + 1;
      1
    end
    else 0
  end
  else begin
    let misses = ref 0 in
    for line = first to last do
      t.access_count <- t.access_count + 1;
      let slot = line land (t.lines - 1) in
      if t.tags.(slot) <> line then begin
        t.tags.(slot) <- line;
        incr misses
      end
    done;
    t.miss_count <- t.miss_count + !misses;
    !misses
  end

(* Single-line access with the line index precomputed by the caller (the
   tier-3 compiler bakes it in per instruction). Must stay bit-identical
   to the single-line branch of [access]. *)
let access_line t line =
  t.access_count <- t.access_count + 1;
  let slot = line land (t.lines - 1) in
  if Array.unsafe_get t.tags slot <> line then begin
    Array.unsafe_set t.tags slot line;
    t.miss_count <- t.miss_count + 1;
    1
  end
  else 0

let copy t = { t with tags = Array.copy t.tags }

let misses t = t.miss_count

let accesses t = t.access_count
