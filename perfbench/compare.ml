(* [compare A B]: two result sets (perfbench/out/results.jsonl files, or
   any concatenation of their lines), A the parent and B the change.

   For every (end-to-end metric, workload) pair it prints each side's
   median and quartiles over its untraced runs, and a verdict under the
   metric's bound from BENCHMARK.json:
   - unresolved: either side's quartile spread, as a share of its median,
     is wider than the bound — unless every run of one side beats every
     run of the other;
   - worse: B's median is worse than A's by more than the bound;
   - better: B's median is better than A's by more than A's quartile
     spread;
   - unchanged: otherwise.
   Per-layer metrics (traced runs) are flagged when their medians differ
   by more than the wider of the two quartile spreads. Each side's
   tracing overhead is the traced over the untraced median of each
   end-to-end metric. *)

module J = R2c_obs.Json

let read_lines path = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'

let num = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None

type run = { workload : string; traced : bool; e2e : (string * float) list; layers : (string * float) list }

let metrics key v =
  match J.member key v with
  | Some (J.Obj fields) ->
      List.filter_map
        (fun (name, mv) -> Option.bind (J.member "value" mv) num |> Option.map (fun x -> (name, x)))
        fields
  | _ -> []

let load path =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match J.parse line with
        | Error e -> failwith (Printf.sprintf "%s: %s" path e)
        | Ok v ->
            let workload = match J.member "workload" v with Some (J.Str s) -> s | _ -> "?" in
            let traced = match J.member "trace" v with Some (J.Int 1) -> true | _ -> false in
            Some { workload; traced; e2e = metrics "end_to_end" v; layers = metrics "per_layer" v })
    (read_lines path)

(* name -> (bound, lower_is_better) from BENCHMARK.json. *)
let bounds () =
  match J.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Ok doc -> (
      match J.member "end_to_end" doc with
      | Some (J.Arr ms) ->
          List.filter_map
            (fun mv ->
              match (J.member "name" mv, Option.bind (J.member "bound" mv) num, J.member "better" mv) with
              | Some (J.Str n), Some b, Some (J.Str better) -> Some (n, (b, better = "lower"))
              | _ -> None)
            ms
      | _ -> [])
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let values runs ~workload ~traced ~layer name =
  List.filter_map
    (fun r ->
      if r.workload = workload && r.traced = traced then
        List.assoc_opt name (if layer then r.layers else r.e2e)
      else None)
    runs

let summary xs =
  let q1, q2, q3 = Stats.quartiles xs in
  (q2, q1, q3, if q2 <> 0.0 then (q3 -. q1) /. Float.abs q2 else infinity)

let pp (med, q1, q3, _) n = Printf.sprintf "%.4g [%.4g, %.4g] n=%d" med q1 q3 n

let verdict ~bound ~lower a b =
  let ma, qa1, qa3, sa = summary a and mb, _, _, sb = summary b in
  let better x y = if lower then x < y else x > y in
  (* [every f]: f holds for every (B run, A run) pair. *)
  let every f = List.for_all (fun y -> List.for_all (fun x -> f y x) a) b in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  if sa > bound || sb > bound then
    if every better then "better (every run)"
    else if every (fun y x -> better x y) then "worse (every run)"
    else "unresolved"
  else if worse_by > bound then "worse"
  else if -.worse_by *. Float.abs ma > qa3 -. qa1 then "better"
  else "unchanged"

let run a b =
  let ra = load a and rb = load b in
  let bounds = bounds () in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (ra @ rb)) in
  let names sel runs = List.sort_uniq compare (List.concat_map (fun r -> List.map fst (sel r)) runs) in
  let worse = ref 0 in
  List.iter
    (fun w ->
      Printf.printf "== %s\n" w;
      Printf.printf "%-24s %-40s %-40s %s\n" "end-to-end" "A" "B" "verdict";
      List.iter
        (fun name ->
          let va = values ra ~workload:w ~traced:false ~layer:false name
          and vb = values rb ~workload:w ~traced:false ~layer:false name in
          if va <> [] && vb <> [] then begin
            let bound, lower = Option.value ~default:(0.1, true) (List.assoc_opt name bounds) in
            let v = verdict ~bound ~lower va vb in
            if String.length v >= 5 && String.sub v 0 5 = "worse" then incr worse;
            Printf.printf "%-24s %-40s %-40s %s\n" name (pp (summary va) (List.length va))
              (pp (summary vb) (List.length vb)) v
          end)
        (names (fun r -> r.e2e) (ra @ rb));
      List.iter
        (fun (label, runs) ->
          let gaps =
            List.filter_map
              (fun name ->
                let off = values runs ~workload:w ~traced:false ~layer:false name
                and on = values runs ~workload:w ~traced:true ~layer:false name in
                if off = [] || on = [] then None
                else Some (Printf.sprintf "%s %.3f" name (Stats.median on /. Stats.median off)))
              (names (fun r -> r.e2e) runs)
          in
          if gaps <> [] then
            Printf.printf "tracing overhead %s (traced/untraced median): %s\n" label (String.concat ", " gaps))
        [ ("A", ra); ("B", rb) ];
      Printf.printf "%-34s %-40s %-40s\n" "per-layer" "A" "B";
      List.iter
        (fun name ->
          let va = values ra ~workload:w ~traced:true ~layer:true name
          and vb = values rb ~workload:w ~traced:true ~layer:true name in
          if va <> [] && vb <> [] then begin
            let ((ma, qa1, qa3, _) as sa) = summary va and ((mb, qb1, qb3, _) as sb) = summary vb in
            let spread = Float.max (qa3 -. qa1) (qb3 -. qb1) in
            Printf.printf "%-34s %-40s %-40s%s\n" name (pp sa (List.length va)) (pp sb (List.length vb))
              (if Float.abs (mb -. ma) > spread then "  CHANGED beyond spread" else "")
          end)
        (names (fun r -> r.layers) (ra @ rb)))
    workloads;
  if !worse > 0 then 1 else 0
