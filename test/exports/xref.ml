(* Cross-reference of a dune build's typed trees: which values and record
   fields that interfaces export are used by some other compilation unit.

   Exports come from the [.cmti] files under the interface directories; uses
   from the [.cmt] files under the use directories. A use is keyed by the
   compilation unit it names, so two modules that share a basename in
   different wrapped libraries ([R2c_attacks__Oracle], [R2c_fuzz__Oracle])
   stay apart. A module alias ([module B = Builder], [let module ...]) is
   followed to its target; any other use of a whole module (an [include], a
   functor argument, a packed first-class module) counts as a use of every
   value it exports.

   A [.cmt] under one of the test directories is a test unit. Its uses go
   into tables of their own: a value whose only outside users are tests is
   not used, it is kept alive by its tests (rule [d]). *)

open Typedtree

type access = Read | Write | Construct

type record = { r_mutable : bool; r_private : bool }

type t = {
  units : (string, unit) Hashtbl.t;  (** every compilation unit read *)
  values : (string, unit) Hashtbl.t;  (** exported value keys *)
  records : (string, record) Hashtbl.t;  (** exported record type keys *)
  value_uses : (string, string) Hashtbl.t;  (** key -> using unit, one binding per use *)
  test_uses : (string, string) Hashtbl.t;  (** the same, from test units *)
  field_uses : (string * access, unit) Hashtbl.t;  (** record key, access kind, tests included *)
  whole : (string, unit) Hashtbl.t;  (** module keys used as a whole *)
  test_whole : (string, unit) Hashtbl.t;  (** the same, from test units *)
  mutable cmt_dirs : string list;  (** the directory of each [.cmt] read *)
}

(* A key is a dotted path that starts with a compilation unit:
   [R2c_attacks__Oracle.t], [R2c_machine__Cpu.Internal.straight]. *)
let unit_of key = match String.index_opt key '.' with Some i -> String.sub key 0 i | None -> key

(* [R2c_attacks__Oracle.t] reads [R2c_attacks.Oracle.t]. *)
let rec display key =
  let n = String.length key in
  let rec sep i =
    if i + 1 >= n then None else if key.[i] = '_' && key.[i + 1] = '_' then Some i else sep (i + 1)
  in
  match sep 0 with
  | Some i -> String.sub key 0 i ^ "." ^ display (String.sub key (i + 2) (n - i - 2))
  | None -> key

let rec files dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          (* dune may relink an executable of the scanned tree while this
             runs: a file gone between the listing and the probe is not a
             directory. *)
          if (try Sys.is_directory p with Sys_error _ -> false) then files p acc else p :: acc)
        acc entries

(* Path components from a persistent module, through the unit's local
   aliases; [None] for anything local to the unit. *)
let rec components aliases (p : Path.t) =
  match p with
  | Pident id when Ident.persistent id -> Some [ Ident.name id ]
  | Pident id -> (
      match List.find_opt (fun (i, _) -> Ident.same i id) !aliases with
      | Some (_, target) -> components aliases target
      | None -> None)
  | Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (components aliases p)
  | _ -> None

(* A wrapped library's alias module [Lib] re-exports its unit [Lib__M] as
   [M]; a key always starts at the unit itself. *)
let key t aliases p =
  match components aliases p with
  | Some (lib :: m :: rest) when Hashtbl.mem t.units (lib ^ "__" ^ m) ->
      Some (String.concat "." ((lib ^ "__" ^ m) :: rest))
  | Some c -> Some (String.concat "." c)
  | None -> None

let rec alias_target me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let scan_uses t ~test unit str =
  let aliases = ref [] in
  let outside k = if unit_of k <> unit then Some k else None in
  let value_uses, whole = if test then (t.test_uses, t.test_whole) else (t.value_uses, t.whole) in
  let use_value p =
    Option.iter (fun k -> Hashtbl.add value_uses k unit) (Option.bind (key t aliases p) outside)
  in
  let use_label access (l : Types.label_description) =
    match Types.get_desc l.lbl_res with
    | Tconstr (p, _, _) ->
        Option.iter
          (fun k -> Hashtbl.replace t.field_uses (k, access) ())
          (Option.bind (key t aliases p) outside)
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let module_binding it mb =
    match (mb.mb_id, alias_target mb.mb_expr) with
    | Some id, Some p -> aliases := (id, p) :: !aliases
    | _ -> default.module_binding it mb
  in
  let expr it e =
    match e.exp_desc with
    | Texp_letmodule (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, body) ->
        aliases := (id, p) :: !aliases;
        it.Tast_iterator.expr it body
    | desc ->
        (match desc with
        | Texp_ident (p, _, _) -> use_value p
        | Texp_field (_, _, l) -> use_label Read l
        | Texp_setfield (_, _, l, _) -> use_label Write l
        | Texp_record { fields; _ } -> use_label Construct (fst fields.(0))
        | _ -> ());
        default.expr it e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) -> List.iter (fun (_, l, _) -> use_label Read l) fields
    | _ -> ());
    default.pat it p
  in
  let module_expr it me =
    (match me.mod_desc with
    | Tmod_ident (p, _) ->
        Option.iter (fun k -> Hashtbl.replace whole k ()) (Option.bind (key t aliases p) outside)
    | _ -> ());
    default.module_expr it me
  in
  (* [open M] brings names into scope; the names it is used for are the uses. *)
  let open_declaration it (o : open_declaration) =
    if alias_target o.open_expr = None then default.open_declaration it o
  in
  let it = { default with module_binding; expr; pat; module_expr; open_declaration } in
  it.structure it str

let rec scan_exports t prefix (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> Hashtbl.replace t.values (prefix ^ "." ^ vd.val_name.txt) ()
      | Tsig_type (_, decls) ->
          List.iter
            (fun d ->
              match d.typ_kind with
              | Ttype_record lds ->
                  Hashtbl.replace t.records
                    (prefix ^ "." ^ d.typ_name.txt)
                    {
                      r_mutable = List.exists (fun ld -> ld.ld_mutable = Asttypes.Mutable) lds;
                      r_private = d.typ_private = Asttypes.Private;
                    }
              | _ -> ())
            decls
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          scan_exports t (prefix ^ "." ^ m) sg
      | _ -> ())
    sg.sig_items

(* [scan ~root ~interfaces ~uses ~tests] reads [root/d] for each directory
   [d]: exports from the [.cmti] files under [interfaces], uses from the
   [.cmt] files under [uses]; a [.cmt] under one of [tests] is a test unit. *)
let scan ~root ~interfaces ~uses ~tests =
  let t =
    {
      units = Hashtbl.create 256;
      values = Hashtbl.create 1024;
      records = Hashtbl.create 256;
      value_uses = Hashtbl.create 8192;
      test_uses = Hashtbl.create 4096;
      field_uses = Hashtbl.create 1024;
      whole = Hashtbl.create 64;
      test_whole = Hashtbl.create 64;
      cmt_dirs = [];
    }
  in
  let read ext dirs =
    List.concat_map
      (fun d ->
        files (Filename.concat root d) []
        |> List.filter (fun f -> Filename.check_suffix f ext)
        |> List.map (fun f ->
               let info = Cmt_format.read_cmt f in
               Hashtbl.replace t.units info.cmt_modname ();
               (d, f, info)))
      dirs
  in
  let cmtis = read ".cmti" interfaces in
  let cmts = read ".cmt" uses in
  let under f d =
    let d = Filename.concat root d ^ "/" in
    String.length f > String.length d && String.sub f 0 (String.length d) = d
  in
  List.iter
    (fun (_, _, (info : Cmt_format.cmt_infos)) ->
      match info.cmt_annots with
      | Interface sg -> scan_exports t info.cmt_modname sg
      | _ -> ())
    cmtis;
  List.iter
    (fun (d, f, (info : Cmt_format.cmt_infos)) ->
      match info.cmt_annots with
      | Implementation str ->
          t.cmt_dirs <- d :: t.cmt_dirs;
          scan_uses t ~test:(List.exists (under f) tests) info.cmt_modname str
      | _ -> ())
    cmts;
  t

let wholly_used whole k =
  let rec up k =
    match String.rindex_opt k '.' with
    | None -> false
    | Some i ->
        let m = String.sub k 0 i in
        Hashtbl.mem whole m || up m
  in
  up k

let used t k = Hashtbl.mem t.value_uses k || wholly_used t.whole k
let test_used t k = Hashtbl.mem t.test_uses k || wholly_used t.test_whole k

let sorted tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(* The four rules, each finding as [(rule, display key)]:
   - [a]: an exported value that no other unit uses, tests included;
   - [b]: an exported record type whose fields no other unit reads, writes
     or constructs;
   - [c]: an exported record type with a [mutable] field, not [private],
     that other units read but never write or construct;
   - [d]: an exported value that only test units use outside its own, unless
     [hooks] names it with a test unit that uses it.
   [hooks] pairs a display key with a test file ([test_jit.ml]); a hook that
   exempts no would-be [d] finding is one more finding, rule [hook]. *)
let findings ?(hooks = []) t =
  let values = List.filter (fun k -> not (used t k)) (sorted t.values) in
  let a = List.filter (fun k -> not (test_used t k)) values |> List.map (fun k -> ("a", display k)) in
  let by_tests = List.filter (test_used t) values in
  let hooked k (name, file) =
    let unit = String.capitalize_ascii (Filename.remove_extension file) in
    name = display k
    && List.exists
         (fun u -> u = unit || String.ends_with ~suffix:("." ^ unit) (display u))
         (Hashtbl.find_all t.test_uses k)
  in
  let d =
    List.filter (fun k -> not (List.exists (hooked k) hooks)) by_tests
    |> List.map (fun k -> ("d", display k))
  in
  let stale =
    List.filter (fun h -> not (List.exists (fun k -> hooked k h) by_tests)) hooks
    |> List.map (fun (name, _) -> ("hook", name))
  in
  let used k access = Hashtbl.mem t.field_uses (k, access) in
  let records = sorted t.records in
  let b =
    List.filter (fun k -> not (used k Read || used k Write || used k Construct)) records
    |> List.map (fun k -> ("b", display k))
  in
  let c =
    List.filter
      (fun k ->
        let r = Hashtbl.find t.records k in
        r.r_mutable && (not r.r_private) && used k Read && not (used k Write || used k Construct))
      records
    |> List.map (fun k -> ("c", display k))
  in
  a @ b @ c @ d @ stale

(* Every export with the units that use it, test units after a [|], for
   reading by hand. *)
let report t =
  let b = Buffer.create 4096 in
  let users uses whole k =
    match List.sort_uniq compare (Hashtbl.find_all uses k) with
    | [] when wholly_used whole k -> "(module used whole)"
    | us -> String.concat " " (List.map display us)
  in
  List.iter
    (fun k ->
      Printf.bprintf b "val  %s  %s | %s\n" (display k) (users t.value_uses t.whole k)
        (users t.test_uses t.test_whole k))
    (sorted t.values);
  List.iter
    (fun k ->
      let r = Hashtbl.find t.records k in
      let kinds =
        List.filter_map
          (fun (a, s) -> if Hashtbl.mem t.field_uses (k, a) then Some s else None)
          [ (Read, "read"); (Write, "write"); (Construct, "construct") ]
      in
      Printf.bprintf b "type %s%s%s  %s\n" (display k)
        (if r.r_mutable then " mutable" else "")
        (if r.r_private then " private" else "")
        (String.concat " " kinds))
    (sorted t.records);
  Buffer.contents b
