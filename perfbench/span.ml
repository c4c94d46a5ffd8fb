(* Host-time spans recorded by the benchmark around its calls into each
   layer. Off (the untraced run), [with_] is the bare call. On, every span
   keeps its name, monotonic start/end, the span that caused it and the
   id of the [Fleet.submit] it ran under (0 outside serving). Spans stay in
   memory and are written once, at exit, as a Chrome trace through the
   system's own [R2c_obs.Events] exporter with host microseconds as
   timestamps.

   Recording is mutex-protected: the fleet fans epoch builds over the
   Domain pool, so a build span may close on another domain. Such spans
   name their parent explicitly ([record]); nesting through [with_] is
   tracked per domain. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  submit : int;  (** id of the fleet submit that caused it, 0 = none *)
  structural : bool;
      (** the benchmark's own grouping (a stage, one operation): its self
          time is work no layer span accounts for *)
  domain : int;
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let lock = Mutex.create ()
let next_id = ref 1
let spans : span list ref = ref []

(* The fleet submit currently being served (its id, and its span), for
   spans opened on behalf of it on any domain. *)
let current_submit = Atomic.make 0
let submit_span = Atomic.make 0

let stack_key : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let fresh_id () = Mutex.protect lock (fun () -> let id = !next_id in incr next_id; id)

let push s = Mutex.protect lock (fun () -> spans := s :: !spans)

let current_parent () =
  match Domain.DLS.get stack_key with p :: _ -> p | [] -> Atomic.get submit_span

let record ?(parent = current_parent ()) ?(structural = false) ~name ~t0 ~t1 () =
  if !enabled then
    push
      {
        id = fresh_id ();
        name;
        parent;
        submit = Atomic.get current_submit;
        structural;
        domain = (Domain.self () :> int);
        t0;
        t1;
      }

let with_ ?(on_open = ignore) ?(structural = false) name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current_parent () in
    on_open id;
    let stack = Domain.DLS.get stack_key in
    Domain.DLS.set stack_key (id :: stack);
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      Domain.DLS.set stack_key stack;
      push
        {
          id;
          name;
          parent;
          submit = Atomic.get current_submit;
          structural;
          domain = (Domain.self () :> int);
          t0;
          t1;
        }
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* One [Fleet.submit]: the span every build it triggers points back to. *)
let with_submit n f =
  Atomic.set current_submit n;
  let v = with_ ~on_open:(Atomic.set submit_span) "runtime.fleet.submit" f in
  Atomic.set submit_span 0;
  Atomic.set current_submit 0;
  v

let all () = List.rev !spans

let dur_ms s = ms_between s.t0 s.t1

(* Self time of each span: its duration minus the union of its children's
   intervals clipped to it (children on another domain may overlap each
   other). *)
let self_times () =
  let spans = all () in
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let cs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.filter (fun (a, b) -> Int64.compare a b < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = if Int64.compare a upto < 0 then upto else a in
            if Int64.compare b a > 0 then (Int64.add acc (Int64.sub b a), b) else (acc, upto))
          (0L, s.t0) cs
      in
      (s, dur_ms s -. (Int64.to_float covered /. 1e6)))
    spans

(* Per span name: count, total and self time. A layer's self time is its
   own cost; a structural span's self time is the remainder of it no layer
   span accounts for. *)
type layer = { lname : string; count : int; total_ms : float; self_ms : float; grouping : bool }

let layers () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let l =
        match Hashtbl.find_opt tbl s.name with
        | Some l -> l
        | None -> { lname = s.name; count = 0; total_ms = 0.0; self_ms = 0.0; grouping = s.structural }
      in
      Hashtbl.replace tbl s.name
        { l with count = l.count + 1; total_ms = l.total_ms +. dur_ms s; self_ms = l.self_ms +. self })
    (self_times ());
  Hashtbl.fold (fun _ l acc -> l :: acc) tbl []
  |> List.sort (fun a b -> compare b.total_ms a.total_ms)

let unattributed_share l = if l.total_ms > 0.0 then l.self_ms /. l.total_ms else 0.0

let flagged () = List.filter (fun l -> l.grouping && unattributed_share l > 0.05) (layers ())

(* The accounting table, one row per span name; a structural parent
   leaving more than 5% of its time unattributed is flagged. *)
let report oc =
  Printf.fprintf oc "%-34s %8s %12s %12s %8s\n" "span" "count" "total_ms" "self_ms" "unattr";
  List.iter
    (fun l ->
      let share = unattributed_share l in
      Printf.fprintf oc "%-34s %8d %12.3f %12.3f %8s%s\n" l.lname l.count l.total_ms l.self_ms
        (if l.grouping then Printf.sprintf "%.1f%%" (100.0 *. share) else "-")
        (if l.grouping && share > 0.05 then "  FLAG >5% unattributed" else ""))
    (layers ())

(* Chrome trace_event export with host microseconds since the first span;
   one thread per domain. *)
let write_chrome path =
  let spans = all () in
  match spans with
  | [] -> ()
  | first :: _ ->
      let origin = List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m) first.t0 spans in
      let us t = Int64.to_int (Int64.div (Int64.sub t origin) 1000L) in
      let ev = R2c_obs.Events.create ~limit:(List.length spans + 1) () in
      List.iter
        (fun s ->
          let args =
            [ ("id", string_of_int s.id); ("parent", string_of_int s.parent) ]
            @ if s.submit > 0 then [ ("submit", string_of_int s.submit) ] else []
          in
          R2c_obs.Events.complete ev ~cat:"host" ~tid:s.domain ~args ~name:s.name ~ts:(us s.t0)
            ~dur:(max 0 (us s.t1 - us s.t0)))
        spans;
      let oc = open_out path in
      output_string oc (R2c_obs.Events.to_chrome ev);
      close_out oc
