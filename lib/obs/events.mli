(** Span-based event timelines, stamped in simulated-cycle time.

    The worker pool (and any other component) records request lifecycles,
    crashes, detections, escalations and respawns as spans and instants;
    the timeline exports as Chrome [trace_event] JSON (load it in
    [chrome://tracing] / Perfetto) and as JSONL structured logs.

    Timestamps and durations are simulated cycles; the Chrome export
    writes them into the [ts]/[dur] microsecond fields unscaled — the
    shape, not the wall-clock unit, is the point. Thread ids: 0 is the
    dispatcher/supervisor, worker [w] is thread [w + 1]. The timeline is
    bounded: past [limit] events, new ones are counted but dropped. *)

type t

(** [create ?limit ()] — default limit 200_000 events. *)
val create : ?limit:int -> unit -> t

(** [complete t ~name ~ts ~dur] — a span ([ph = "X"]). *)
val complete :
  ?cat:string -> ?tid:int -> ?args:(string * string) list ->
  t -> name:string -> ts:int -> dur:int -> unit

(** [instant t ~name ~ts] — a point event ([ph = "i"]). *)
val instant :
  ?cat:string -> ?tid:int -> ?args:(string * string) list ->
  t -> name:string -> ts:int -> unit

(** [count ?cat t] — number of recorded events, optionally only those in
    a category. *)
val count : ?cat:string -> t -> int

(** [to_chrome t] — a Chrome [trace_event] document:
    [{"traceEvents": [...], "otherData": {"dropped": n, ...}, ...}], [n]
    the events discarded past the limit. *)
val to_chrome : t -> string

(** [to_jsonl t] — one JSON object per line, oldest first. *)
val to_jsonl : t -> string
