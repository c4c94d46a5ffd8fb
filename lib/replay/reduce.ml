module Shrink = R2c_fuzz.Shrink
open Trace

type report = {
  raw_bytes : int;
  reduced_bytes : int;
  raw_spans : int;
  reduced_spans : int;
  checks : int;
  kept : int;
}

let ratio r =
  if r.raw_bytes <= 0 then 0.0
  else 1.0 -. (float_of_int r.reduced_bytes /. float_of_int r.raw_bytes)

(* --- tree helpers -------------------------------------------------- *)

(* Keep events whose spans satisfy [pred]; loops with emptied bodies
   disappear too. *)
let filter_spans pred t =
  let rec go evs =
    List.filter_map
      (fun ev ->
        match ev with
        | Span s -> if pred s then Some ev else None
        | Feed _ -> Some ev
        | Loop (body, n) -> (
            match go body with [] -> None | body' -> Some (Loop (body', n))))
      evs
  in
  { t with events = go t.events }

let builtin_names t =
  let seen = Hashtbl.create 8 in
  let rec go = function
    | Span s -> if not (Hashtbl.mem seen s.builtin) then Hashtbl.add seen s.builtin ()
    | Feed _ -> ()
    | Loop (body, _) -> List.iter go body
  in
  List.iter go t.events;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

(* Count spans of one builtin, loop bodies counted once (edits operate on
   the tree, not the expansion). *)
let family_size t name =
  let rec go acc = function
    | Span s -> if s.builtin = name then acc + 1 else acc
    | Feed _ -> acc
    | Loop (body, _) -> List.fold_left go acc body
  in
  List.fold_left go 0 t.events

(* Drop the spans of [name] whose in-order ordinal is in [lo, hi). *)
let drop_family_range t name lo hi =
  let ord = ref 0 in
  filter_spans
    (fun s ->
      if s.builtin <> name then true
      else begin
        let i = !ord in
        incr ord;
        not (i >= lo && i < hi)
      end)
    t

(* Replace data-carrying read_input spans with dictionary references:
   the payload is all replay needs, and repeated request bodies intern
   to one dictionary slot. *)
let elide_reads t =
  let tbl = Hashtbl.create 16 in
  let entries = ref [] in
  let count = ref 0 in
  Array.iter
    (fun s ->
      Hashtbl.replace tbl s !count;
      entries := s :: !entries;
      incr count)
    t.dict;
  let intern s =
    match Hashtbl.find_opt tbl s with
    | Some i -> i
    | None ->
        let i = !count in
        Hashtbl.add tbl s i;
        entries := s :: !entries;
        incr count;
        i
  in
  let rec go = function
    | Span s when s.builtin = "read_input" && s.rax > 0 -> (
        match s.data with Some d -> Feed (intern d) | None -> Span s)
    | Loop (body, n) -> Loop (List.map go body, n)
    | ev -> ev
  in
  let events = List.map go t.events in
  { t with events; dict = Array.of_list (List.rev !entries) }

(* Greedy periodic-run detection over the top-level stream: at each
   position take the (period, repeats) pair covering the most events and
   fold it into a [Loop]. Period is bounded; steady-state request loops
   have short periods once reads are elided. *)
let collapse_loops ?(max_period = 64) t =
  let arr = Array.of_list t.events in
  let n = Array.length arr in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let best = ref None in
    for p = 1 to min max_period ((n - !i) / 2) do
      let reps = ref 1 in
      let continue_ = ref true in
      while !continue_ do
        let s = !i + (!reps * p) in
        if s + p <= n then begin
          let eq = ref true in
          for k = 0 to p - 1 do
            if arr.(!i + k) <> arr.(s + k) then eq := false
          done;
          if !eq then incr reps else continue_ := false
        end
        else continue_ := false
      done;
      if !reps >= 2 then
        match !best with
        | Some (bp, br) when bp * br >= p * !reps -> ()
        | _ -> best := Some (p, !reps)
    done;
    match !best with
    | Some (p, reps) ->
        out := Loop (Array.to_list (Array.sub arr !i p), reps) :: !out;
        i := !i + (p * reps)
    | None ->
        out := arr.(!i) :: !out;
        incr i
  done;
  { t with events = List.rev !out }

(* Drop dictionary entries no Feed references and renumber. *)
let compact_dict t =
  let used = Hashtbl.create 16 in
  let rec mark = function
    | Feed i -> Hashtbl.replace used i ()
    | Loop (body, _) -> List.iter mark body
    | Span _ -> ()
  in
  List.iter mark t.events;
  let remap = Hashtbl.create 16 in
  let entries = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem used i then begin
        Hashtbl.add remap i !next;
        entries := s :: !entries;
        incr next
      end)
    t.dict;
  let rec go = function
    | Feed i -> Feed (Hashtbl.find remap i)
    | Loop (body, n) -> Loop (List.map go body, n)
    | ev -> ev
  in
  { t with events = List.map go t.events; dict = Array.of_list (List.rev !entries) }

(* --- candidate enumeration, big-to-small --------------------------- *)

let candidates t =
  let fams = builtin_names t in
  let whole_families =
    List.concat_map
      (fun name ->
        if name = "read_input" then []
        else [ (fun () -> filter_spans (fun s -> s.builtin <> name) t) ])
      fams
  in
  let empty_reads =
    [ (fun () -> filter_spans (fun s -> not (s.builtin = "read_input" && s.rax <= 0)) t) ]
  in
  let elide = [ (fun () -> elide_reads t) ] in
  let collapse = [ (fun () -> collapse_loops t) ] in
  let gc = [ (fun () -> compact_dict t) ] in
  let halves =
    List.concat_map
      (fun name ->
        if name = "read_input" then []
        else
          let k = family_size t name in
          if k < 2 then []
          else
            [
              (fun () -> drop_family_range t name 0 (k / 2));
              (fun () -> drop_family_range t name (k / 2) k);
            ])
      fams
  in
  whole_families @ empty_reads @ elide @ collapse @ gc @ halves

let run ?(max_checks = 200) ?tolerance t0 =
  let keep t =
    match Replayer.check ?tolerance t with
    | Ok v -> v.Replayer.failures = []
    | Error _ -> false
  in
  let reduced, stats =
    Shrink.Greedy.fix ~max_checks ~weight:Trace.size ~candidates
      ~valid:Trace.structurally_valid ~keep t0
  in
  ( reduced,
    {
      raw_bytes = Trace.size t0;
      reduced_bytes = Trace.size reduced;
      raw_spans = Trace.span_count t0;
      reduced_spans = Trace.span_count reduced;
      checks = stats.Shrink.Greedy.checks;
      kept = stats.Shrink.Greedy.kept;
    } )
