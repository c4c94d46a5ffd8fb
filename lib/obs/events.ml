type phase = Complete of int  (* duration in cycles *) | Instant

type event = {
  name : string;
  cat : string;
  ts : int;  (* simulated-cycle timestamp *)
  tid : int;
  ph : phase;
  args : (string * string) list;
}

type t = {
  limit : int;
  mutable evs : event list;  (* newest first *)
  mutable n : int;
  mutable dropped : int;
}

let create ?(limit = 200_000) () = { limit; evs = []; n = 0; dropped = 0 }

let push t ev =
  if t.n >= t.limit then t.dropped <- t.dropped + 1
  else begin
    t.evs <- ev :: t.evs;
    t.n <- t.n + 1
  end

let complete ?(cat = "") ?(tid = 0) ?(args = []) t ~name ~ts ~dur =
  push t { name; cat; ts; tid; ph = Complete dur; args }

let instant ?(cat = "") ?(tid = 0) ?(args = []) t ~name ~ts =
  push t { name; cat; ts; tid; ph = Instant; args }

let events t = List.rev t.evs

let count ?cat t =
  match cat with
  | None -> t.n
  | Some c -> List.length (List.filter (fun e -> e.cat = c) t.evs)

let event_json e =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid);
      ("ts", Json.Int e.ts);
    ]
  in
  let phase =
    match e.ph with
    | Complete dur -> [ ("ph", Json.Str "X"); ("dur", Json.Int dur) ]
    | Instant -> [ ("ph", Json.Str "i"); ("s", Json.Str "g") ]
  in
  let args =
    match e.args with
    | [] -> []
    | kvs -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ]
  in
  Json.Obj (base @ phase @ args)

let to_chrome t =
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map event_json (events t)));
         ("displayTimeUnit", Json.Str "ns");
         ("otherData", Json.Obj [ ("clock", Json.Str "simulated-cycles");
                                  ("dropped", Json.Int t.dropped) ]);
       ])

let to_jsonl t =
  String.concat "\n" (List.map (fun e -> Json.to_string (event_json e)) (events t))
