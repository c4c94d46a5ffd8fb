let require_nonempty = function
  | [] -> invalid_arg "Stats: empty list"
  | _ -> ()

let mean xs =
  require_nonempty xs;
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  require_nonempty xs;
  List.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: non-positive") xs;
  let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
  exp (log_sum /. float_of_int (List.length xs))

let sorted xs = List.sort compare xs

let median xs =
  require_nonempty xs;
  let s = Array.of_list (sorted xs) in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let median_int xs =
  require_nonempty xs;
  let s = Array.of_list (List.sort compare xs) in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else s.((n / 2) - 1)

let maximum xs =
  require_nonempty xs;
  List.fold_left max (List.hd xs) xs

let pearson xs ys =
  if List.length xs <> List.length ys then invalid_arg "Stats.pearson: length mismatch";
  require_nonempty xs;
  let mx = mean xs and my = mean ys in
  let num =
    List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys
  in
  let sx = sqrt (List.fold_left (fun a x -> a +. ((x -. mx) ** 2.0)) 0.0 xs) in
  let sy = sqrt (List.fold_left (fun a y -> a +. ((y -. my) ** 2.0)) 0.0 ys) in
  if sx = 0.0 || sy = 0.0 then 0.0 else num /. (sx *. sy)

type cluster = { lo : int; hi : int; members : int list }

let cluster ~gap values =
  match List.sort compare values with
  | [] -> []
  | first :: rest ->
      (* Walk the sorted values, closing a cluster at each gap wider than
         [gap]. [current] holds the open cluster's members in reverse. *)
      let close current =
        let members = List.rev current in
        match (members, current) with
        | lo :: _, hi :: _ -> { lo; hi; members }
        | [], _ | _, [] -> assert false
      in
      let rec walk acc current prev = function
        | [] -> List.rev (close current :: acc)
        | v :: tl ->
            if v - prev > gap then walk (close current :: acc) [ v ] v tl
            else walk acc (v :: current) v tl
      in
      walk [] [ first ] first rest
