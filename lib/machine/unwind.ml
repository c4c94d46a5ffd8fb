(* Frame walk:

   At a return-address slot S holding RA (which returns into function F at
   some call site), the FDE row for RA gives the words between S and F's
   frame base (BTRA pre-offset plus pushed stack arguments); F's CIE row
   gives its frame size and post-offset. F's own return address then sits
   at

     S + 8 + 8*site_words(RA) + frame_size(F) + 8*post_words(F).        *)

let func_row (img : Image.t) addr =
  (* Binary search over (entry, len, frame, post) rows ascending by entry. *)
  let rows = img.Image.unwind_funcs in
  let rec search lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let entry, len, frame, post = rows.(mid) in
      if addr < entry then search lo (mid - 1)
      else if addr >= entry + len then search (mid + 1) hi
      else Some (frame, post)
  in
  search 0 (Array.length rows - 1)

let backtrace mem (img : Image.t) ~ra_slot =
  let sites = (Image.sites img).unwind_sites in
  let rec walk slot acc guard =
    if guard <= 0 then List.rev acc
    else
      match Mem.peek_u64 mem slot with
      | None -> List.rev acc
      | Some ra -> (
          match Hashtbl.find_opt sites ra with
          | None -> List.rev acc (* _start or a corrupted chain *)
          | Some site_words -> (
              match func_row img ra with
              | None -> List.rev (ra :: acc)
              | Some (frame, post) ->
                  let next = slot + 8 + (8 * site_words) + frame + (8 * post) in
                  walk next (ra :: acc) (guard - 1)))
  in
  walk ra_slot [] 256
