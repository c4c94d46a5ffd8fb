module J = R2c_obs.Json
module Table = R2c_util.Table

type kind = Det | Timed | Text

type cell =
  | Int of int
  | Float of (float -> string) * float
  | Str of string
  | Bool of bool
  | Missing
  | Ints of int list
  | Strs of string list
  | Record of (string * cell) list

type column = { key : string; header : string; align : Table.align; kind : kind }

type item =
  | Field of { key : string; label : string; kind : kind; value : cell }
  | Table of { key : string; title : string; columns : column list; rows : cell list list }
  | Note of string

type t = item list

let field ?(kind = Det) ?label key value =
  Field { key; label = Option.value label ~default:key; kind; value }

let col ?(kind = Det) key header = { key; header; align = Table.Right; kind }
let left ?(kind = Det) key header = { key; header; align = Table.Left; kind }
let table key ~title columns rows = Table { key; title; columns; rows }
let f1 x = Float (Printf.sprintf "%.1f", x)
let pct x = Float (Table.pct, x)
let ratio x = Float (Table.ratio, x)
let opt f = function Some x -> f x | None -> Missing

let rec cell_text = function
  | Int i -> string_of_int i
  | Float (fmt, x) -> fmt x
  | Str s -> s
  | Bool b -> string_of_bool b
  | Missing | Ints [] | Strs [] -> "-"
  | Ints is -> String.concat ", " (List.map string_of_int is)
  | Strs ss -> String.concat ", " ss
  | Record kvs -> String.concat " " (List.map (fun (k, c) -> k ^ "=" ^ cell_text c) kvs)

let rec cell_json = function
  | Int i -> J.Int i
  | Float (_, x) -> J.Float x
  | Str s -> J.Str s
  | Bool b -> J.Bool b
  | Missing -> J.Null
  | Ints is -> J.Arr (List.map (fun i -> J.Int i) is)
  | Strs ss -> J.Arr (List.map (fun s -> J.Str s) ss)
  | Record kvs -> J.Obj (List.map (fun (k, c) -> (k, cell_json c)) kvs)

let render title columns rows =
  Printf.sprintf "\n== %s ==\n%s\n" title
    (Table.render
       ~headers:(List.map (fun c -> c.header) columns)
       ~aligns:(List.map (fun c -> c.align) columns)
       (List.map (List.map cell_text) rows))

(* A column whose cells are all [Record]s prints as a table of its own, one
   column per key, led by the table's first column: inline, each cell would
   be one long [k=v ...] string. *)
let table_text title columns rows =
  let nested i =
    rows <> [] && List.for_all (fun r -> match List.nth r i with Record _ -> true | _ -> false) rows
  in
  let flat, records = List.partition (fun (i, _) -> not (nested i)) (List.mapi (fun i c -> (i, c)) columns) in
  let record (i, c) =
    let kvs r = match List.nth r i with Record kvs -> kvs | _ -> [] in
    render (title ^ ": " ^ c.header)
      (List.hd columns :: List.map (fun (k, _) -> { c with header = k; align = Table.Right }) (kvs (List.hd rows)))
      (List.map (fun r -> List.hd r :: List.map snd (kvs r)) rows)
  in
  String.concat ""
    (render title (List.map snd flat) (List.map (fun r -> List.map (fun (i, _) -> List.nth r i) flat) rows)
    :: List.map record records)

let text r =
  String.concat ""
    (List.map
       (function
         | Field f -> Printf.sprintf "%s: %s\n" f.label (cell_text f.value)
         | Table t -> table_text t.title t.columns t.rows
         | Note s -> s ^ "\n")
       r)

let members kind r =
  List.concat_map
    (function
      | Field f when f.kind = kind -> [ (f.key, cell_json f.value) ]
      | Table t when List.exists (fun c -> c.kind = kind) t.columns ->
          let row cells =
            J.Obj
              (List.concat
                 (List.map2
                    (fun c v -> if c.kind = kind then [ (c.key, cell_json v) ] else [])
                    t.columns cells))
          in
          [ (t.key, J.Arr (List.map row t.rows)) ]
      | Field _ | Table _ | Note _ -> [])
    r
