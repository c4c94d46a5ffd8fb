let max_buckets = 62

type counter = { c_name : string; c_help : string; mutable c_value : int }
type gauge = { g_name : string; g_help : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_help : string;
  buckets : int array;  (* log2 buckets, see mli *)
  mutable h_count : int;
  mutable h_sum : float;
}

type item = Counter of counter | Gauge of gauge | Histogram of histogram

type t = { mutable items : item list (* newest first *) }

let create () = { items = [] }

let item_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let find t name = List.find_opt (fun i -> item_name i = name) t.items

let counter ?(help = "") t name =
  match find t name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " registered as another kind")
  | None ->
      let c = { c_name = name; c_help = help; c_value = 0 } in
      t.items <- Counter c :: t.items;
      c

let gauge ?(help = "") t name =
  match find t name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " registered as another kind")
  | None ->
      let g = { g_name = name; g_help = help; g_value = 0.0 } in
      t.items <- Gauge g :: t.items;
      g

let histogram ?(help = "") t name =
  match find t name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " registered as another kind")
  | None ->
      let h =
        {
          h_name = name;
          h_help = help;
          buckets = Array.make (max_buckets + 1) 0;
          h_count = 0;
          h_sum = 0.0;
        }
      in
      t.items <- Histogram h :: t.items;
      h

let inc ?(by = 1) c = c.c_value <- c.c_value + by
let set_counter c v = c.c_value <- v
let set_gauge g v = g.g_value <- v

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

let counter_value c = c.c_value
let hist_count h = h.h_count
let hist_sum h = h.h_sum

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
  let header name help kind =
    if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun item ->
      match item with
      | Counter c ->
          header c.c_name c.c_help "counter";
          Buffer.add_string buf (Printf.sprintf "%s %d\n" c.c_name c.c_value)
      | Gauge g ->
          header g.g_name g.g_help "gauge";
          Buffer.add_string buf (Printf.sprintf "%s %s\n" g.g_name (float_str g.g_value))
      | Histogram h ->
          header h.h_name h.h_help "histogram";
          let top = top_bucket h in
          let cum = ref 0 in
          for i = 0 to top do
            cum := !cum + h.buckets.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" h.h_name (bucket_bound i) !cum)
          done;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" h.h_name h.h_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" h.h_name (float_str h.h_sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" h.h_name h.h_count))
    (items_in_order t);
  Buffer.contents buf

let to_json t =
  let item_json = function
    | Counter c -> (c.c_name, Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int c.c_value) ])
    | Gauge g -> (g.g_name, Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float g.g_value) ])
    | Histogram h ->
        let top = top_bucket h in
        let buckets =
          List.init (top + 1) (fun i ->
              Json.Obj [ ("le", Json.Int (bucket_bound i)); ("n", Json.Int h.buckets.(i)) ])
        in
        ( h.h_name,
          Json.Obj
            [
              ("type", Json.Str "histogram");
              ("count", Json.Int h.h_count);
              ("sum", Json.Float h.h_sum);
              ("buckets", Json.Arr buckets);
            ] )
  in
  Json.Obj (List.map item_json (items_in_order t))
