module Stats = R2c_util.Stats

type label = Code | Static_data | Heap_like | Stack_like | Unknown

type cluster = {
  label : label;
  lo : int;
  hi : int;
  members : int list;
}

(* Public coarse knowledge of the user-space map — not victim ground
   truth: canonical Linux x86-64 places non-PIE text low, PIE/data/heap in
   the 0x5555xx-0x7fxx mmap range, stacks just below 0x7ffffffff000. *)
let label_of_range lo hi =
  if hi < 0x1_0000_0000 then Code
  else if lo >= 0x7f00_0000_0000 then Stack_like
  else if lo >= 0x5000_0000_0000 && hi < 0x7f00_0000_0000 then
    (* The data/heap boundary is not directly observable; AOCR leans on the
       brk heap sitting above the module's data segment. Within the window,
       call the lower cluster data and higher clusters heap; a single
       cluster here is treated as heap-like (the attacker dereferences to
       find out). *)
    Heap_like
  else Unknown

let analyze ?(gap = 1 lsl 24) values =
  let pointers = List.filter (fun v -> v > 0xffff) values in
  let raw = Stats.cluster ~gap pointers in
  (* First pass: range labels. *)
  let labelled =
    List.map
      (fun (c : Stats.cluster) ->
        { label = label_of_range c.Stats.lo c.Stats.hi; lo = c.lo; hi = c.hi;
          members = c.members })
      raw
  in
  (* Second pass: among the mmap-range clusters, the lowest is the module's
     data segment, anything above it is heap. *)
  let mmap_clusters =
    List.filter (fun c -> c.label = Heap_like) labelled |> List.sort compare
  in
  let labelled =
    match mmap_clusters with
    | lowest :: _ :: _ ->
        List.map
          (fun c ->
            if c.label = Heap_like && c.lo = lowest.lo then
              { c with label = Static_data }
            else c)
          labelled
    | _ -> labelled
  in
  List.sort
    (fun a b -> compare (List.length b.members) (List.length a.members))
    labelled

let heap_candidates clusters =
  List.concat_map
    (fun c -> if c.label = Heap_like then c.members else [])
    clusters
  |> List.sort_uniq compare

let code_candidates clusters =
  List.concat_map (fun c -> if c.label = Code then c.members else []) clusters
  |> List.sort_uniq compare
