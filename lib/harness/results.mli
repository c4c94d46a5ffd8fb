(** One shape for every experiment's results, and the one renderer.

    A harness returns its results as an ordered list of {!item}s: named
    scalar fields, tables and prose notes. {!text} prints them (tables
    through {!R2c_util.Table.render}) and {!members} builds each JSON half
    from the items marked for it, so a value is deterministic because it
    is marked {!Det}, not because of which hand-built object it was put
    in. *)

(** Where a field or column goes besides the text. *)
type kind =
  | Det  (** deterministic: the [det] half, byte-identical at any job count *)
  | Timed  (** host-timed: the [volatile] half *)
  | Text
      (** text only: derived views of printed values, and detail a gate
          entry's pinned [det] schema leaves out *)

type cell =
  | Int of int
  | Float of (float -> string) * float  (** text format, value *)
  | Str of string
  | Bool of bool
  | Missing  (** prints [-], JSON [null] *)
  | Ints of int list
  | Strs of string list
  | Record of (string * cell) list  (** one nested object: [k=v] pairs in text *)

type column

type item =
  | Field of { key : string; label : string; kind : kind; value : cell }
      (** prints [label: value] *)
  | Table of { key : string; title : string; columns : column list; rows : cell list list }
      (** JSON: an array of one object per row, holding the columns of the
          half; a half none of whose columns is marked gets no key *)
  | Note of string  (** text only *)

type t = item list

(** [field ?kind ?label key v] — default [kind] {!Det}, [label] [key]. *)
val field : ?kind:kind -> ?label:string -> string -> cell -> item

(** [col ?kind key header], [left ?kind key header] — a right- or
    left-aligned column; default [kind] {!Det}. *)
val col : ?kind:kind -> string -> string -> column

val left : ?kind:kind -> string -> string -> column

(** [table key ~title columns rows] — a {!Table} item. *)
val table : string -> title:string -> column list -> cell list list -> item

(** [f1 x] — a float printed with one decimal. *)
val f1 : float -> cell

(** [pct x] — a fraction printed as a percentage ({!R2c_util.Table.pct}). *)
val pct : float -> cell

(** [ratio x] — a ratio printed with two decimals ({!R2c_util.Table.ratio}). *)
val ratio : float -> cell

(** [opt f x] — [f] of [Some] value, {!Missing} for [None]. *)
val opt : ('a -> cell) -> 'a option -> cell

(** [text r] — the human-readable report. *)
val text : t -> string

(** [members kind r] — the JSON object members of the fields and table
    columns marked [kind], in report order: [members Det] is the [det]
    half, [members Timed] the report's share of [volatile]. *)
val members : kind -> t -> (string * R2c_obs.Json.t) list
