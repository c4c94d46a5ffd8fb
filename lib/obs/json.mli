(** Minimal JSON: a value type, a compact printer, and a validating
    recursive-descent parser.

    The observability layer emits Chrome [trace_event] files, JSONL logs
    and metric dumps; CI re-reads what it wrote and fails the build if it
    does not parse. No external JSON dependency is available in the image,
    so both directions live here. Numbers are printed with enough
    precision to round-trip simulated-cycle counts. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [to_string v] — compact (single-line) rendering with full string
    escaping. *)
val to_string : t -> string

(** [parse ?max_depth s] — parse one JSON value; trailing non-whitespace
    is an error. Errors carry a byte offset. Containers may nest at most
    [max_depth] (default 512) levels deep — past that the parser reports
    ["nesting too deep"] instead of overflowing the OCaml stack on
    adversarial input. *)
val parse : ?max_depth:int -> string -> (t, string) result

(** [member key v] — field lookup on an [Obj]; [None] otherwise. *)
val member : string -> t -> t option
