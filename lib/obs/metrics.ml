let max_buckets = 62

type histogram = {
  buckets : int array;  (* log2 buckets, see mli *)
  mutable h_count : int;
  mutable h_sum : float;
}

type reading = Counter of (unit -> int) | Gauge of (unit -> float) | Histogram of histogram
type item = { name : string; help : string; mutable reading : reading }
type t = { mutable items : item list (* newest first *) }

let create () = { items = [] }

let kind = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"
let find t name = List.find_opt (fun i -> i.name = name) t.items

let clash kind name = invalid_arg (Printf.sprintf "Metrics.%s: %s registered as another kind" kind name)
let add t ~help name reading = t.items <- { name; help; reading } :: t.items

(* Counters and gauges read through a function; registering one again
   replaces it. *)
let read_through t ~help name reading =
  match find t name with
  | None -> add t ~help name reading
  | Some i when kind i.reading = kind reading -> i.reading <- reading
  | Some _ -> clash (kind reading) name

let counter ?(help = "") t name read = read_through t ~help name (Counter read)
let gauge ?(help = "") t name read = read_through t ~help name (Gauge read)

let histogram ?(help = "") t name =
  match find t name with
  | Some { reading = Histogram h; _ } -> h
  | Some _ -> clash "histogram" name
  | None ->
      let h = { buckets = Array.make (max_buckets + 1) 0; h_count = 0; h_sum = 0.0 } in
      add t ~help name (Histogram h);
      h

let bucket_of v =
  if v <= 1 then 0
  else begin
    let rec go i bound = if bound >= v then i else go (i + 1) (bound * 2) in
    min max_buckets (go 0 1)
  end

let bucket_bound i = 1 lsl i

let observe h v =
  let v = max 0 v in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. float_of_int v

let percentile h p =
  if h.h_count = 0 then 0
  else begin
    let p = Float.max 1e-9 (Float.min 100.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
    let rank = max 1 rank in
    let rec go i cum =
      if i > max_buckets then bucket_bound max_buckets
      else
        let cum = cum + h.buckets.(i) in
        if cum >= rank then bucket_bound i else go (i + 1) cum
    in
    go 0 0
  end

let items_in_order t = List.rev t.items

let top_bucket h =
  let rec go i = if i < 0 then -1 else if h.buckets.(i) > 0 then i else go (i - 1) in
  go max_buckets

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let expose t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun { name; help; reading } ->
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name (kind reading));
      match reading with
      | Counter read -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name (read ()))
      | Gauge read -> Buffer.add_string buf (Printf.sprintf "%s %s\n" name (float_str (read ())))
      | Histogram h ->
          let top = top_bucket h in
          let cum = ref 0 in
          for i = 0 to top do
            cum := !cum + h.buckets.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name (bucket_bound i) !cum)
          done;
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.h_count);
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (float_str h.h_sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.h_count))
    (items_in_order t);
  Buffer.contents buf
