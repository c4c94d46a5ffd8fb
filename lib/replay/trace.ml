module J = R2c_obs.Json
module Cost = R2c_machine.Cost
module Dconfig = R2c_core.Dconfig

type span = {
  builtin : string;
  rdi : int;
  rsi : int;
  rax : int;
  data : string option;
  cycles : float;
  insns : int;
}

type event = Span of span | Feed of int | Loop of event list * int

type expect = {
  e_cycles : float;
  e_insns : int;
  e_accesses : int;
  e_misses : int;
  e_exit : int;
  e_output_len : int;
  e_output_hash : int64;
}

type meta = {
  workload : string;
  config : string;
  seed : int;
  machine : string;
  fuel : int;
}

type t = {
  meta : meta;
  program : Ir.program;
  dict : string array;
  events : event list;
  expect : expect;
}

(* FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms —
   the digest is written into artifacts that CI re-checks. *)
let output_hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let feeds t =
  let out = ref [] in
  let rec go ev =
    match ev with
    | Span s -> if s.builtin = "read_input" && s.rax > 0 then
        (match s.data with Some d -> out := d :: !out | None -> ())
    | Feed i -> out := t.dict.(i) :: !out
    | Loop (body, n) ->
        for _ = 1 to n do
          List.iter go body
        done
  in
  List.iter go t.events;
  List.rev !out

let span_count t =
  let rec go acc = function
    | Span _ | Feed _ -> acc + 1
    | Loop (body, n) -> acc + (n * List.fold_left go 0 body)
  in
  List.fold_left go 0 t.events

(* --- serialization ------------------------------------------------- *)

let span_json s =
  let base =
    [
      ("b", J.Str s.builtin);
      ("rdi", J.Int s.rdi);
      ("rsi", J.Int s.rsi);
      ("rax", J.Int s.rax);
    ]
  in
  let data = match s.data with None -> [] | Some d -> [ ("d", J.Str d) ] in
  J.Obj (base @ data @ [ ("cyc", J.Float s.cycles); ("ins", J.Int s.insns) ])

let rec event_json = function
  | Span s -> span_json s
  | Feed i -> J.Obj [ ("f", J.Int i) ]
  | Loop (body, n) ->
      J.Obj [ ("n", J.Int n); ("do", J.Arr (List.map event_json body)) ]

let event_lines t = List.map (fun e -> J.to_string (event_json e)) t.events

let dict_json t = J.Arr (Array.to_list (Array.map (fun s -> J.Str s) t.dict))

(* Reduction is measured on what reduction can change: the event stream
   and the payload dictionary. Header and program ride along unchanged. *)
let size t =
  let ev = List.fold_left (fun a l -> a + String.length l + 1) 0 (event_lines t) in
  ev + String.length (J.to_string (dict_json t))

let header_json t =
  J.Obj
    [
      ("r2cr", J.Int 1);
      ("workload", J.Str t.meta.workload);
      ("config", J.Str t.meta.config);
      ("seed", J.Int t.meta.seed);
      ("machine", J.Str t.meta.machine);
      ("fuel", J.Int t.meta.fuel);
      ( "expect",
        J.Obj
          [
            ("cycles", J.Float t.expect.e_cycles);
            ("insns", J.Int t.expect.e_insns);
            ("accesses", J.Int t.expect.e_accesses);
            ("misses", J.Int t.expect.e_misses);
            ("exit", J.Int t.expect.e_exit);
            ("output_len", J.Int t.expect.e_output_len);
            ("output_hash", J.Str (Printf.sprintf "%016Lx" t.expect.e_output_hash));
          ] );
      ("dict", dict_json t);
    ]

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (J.to_string (header_json t));
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (J.to_string (J.Obj [ ("program", J.Str (Text.to_string t.program)) ]));
  Buffer.add_char buf '\n';
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    (event_lines t);
  Buffer.contents buf

(* --- parsing ------------------------------------------------------- *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let get_int what = function
  | J.Int i -> i
  | _ -> fail "%s: expected integer" what

let get_num what = function
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> fail "%s: expected number" what

let get_str what = function
  | J.Str s -> s
  | _ -> fail "%s: expected string" what

let field what j k =
  match J.member k j with
  | Some v -> v
  | None -> fail "%s: missing field %S" what k

let span_of_json j =
  {
    builtin = get_str "span.b" (field "span" j "b");
    rdi = get_int "span.rdi" (field "span" j "rdi");
    rsi = get_int "span.rsi" (field "span" j "rsi");
    rax = get_int "span.rax" (field "span" j "rax");
    data = (match J.member "d" j with Some v -> Some (get_str "span.d" v) | None -> None);
    cycles = get_num "span.cyc" (field "span" j "cyc");
    insns = get_int "span.ins" (field "span" j "ins");
  }

let rec event_of_json j =
  match J.member "f" j with
  | Some v -> Feed (get_int "feed" v)
  | None -> (
      match J.member "do" j with
      | Some (J.Arr body) ->
          Loop (List.map event_of_json body, get_int "loop.n" (field "loop" j "n"))
      | Some _ -> fail "loop: 'do' must be an array"
      | None -> Span (span_of_json j))

let expect_of_json j =
  let f k = field "expect" j k in
  let hash =
    let s = get_str "expect.output_hash" (f "output_hash") in
    try Int64.of_string ("0x" ^ s) with _ -> fail "expect.output_hash: bad hex"
  in
  {
    e_cycles = get_num "expect.cycles" (f "cycles");
    e_insns = get_int "expect.insns" (f "insns");
    e_accesses = get_int "expect.accesses" (f "accesses");
    e_misses = get_int "expect.misses" (f "misses");
    e_exit = get_int "expect.exit" (f "exit");
    e_output_len = get_int "expect.output_len" (f "output_len");
    e_output_hash = hash;
  }

(* Structural validity: everything [feeds]/[size] index into must be in
   range. The reducer re-checks this on every candidate. *)
let structurally_valid t =
  let dlen = Array.length t.dict in
  let rec ok = function
    | Span _ -> true
    | Feed i -> i >= 0 && i < dlen
    | Loop (body, n) -> n >= 1 && body <> [] && List.for_all ok body
  in
  List.for_all ok t.events

let parse_line what line =
  match J.parse line with
  | Ok v -> v
  | Error e -> fail "%s: %s" what e

let of_string s =
  match
    let lines =
      String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
    in
    match lines with
    | header :: program :: events ->
        let hj = parse_line "header" header in
        (match J.member "r2cr" hj with
        | Some (J.Int 1) -> ()
        | _ -> fail "header: not an r2cr v1 file");
        let meta =
          {
            workload = get_str "workload" (field "header" hj "workload");
            config = get_str "config" (field "header" hj "config");
            seed = get_int "seed" (field "header" hj "seed");
            machine = get_str "machine" (field "header" hj "machine");
            fuel = get_int "fuel" (field "header" hj "fuel");
          }
        in
        (* The rebuild coordinates must name a known config and machine,
           or replay would fail later, outside this result. *)
        (match (Dconfig.of_name meta.config, Cost.of_name meta.machine) with
        | Error e, _ | _, Error e -> fail "header: %s" e
        | Ok _, Ok _ -> ());
        let expect = expect_of_json (field "header" hj "expect") in
        let dict =
          match field "header" hj "dict" with
          | J.Arr xs -> Array.of_list (List.map (get_str "dict entry") xs)
          | _ -> fail "header: dict must be an array"
        in
        let pj = parse_line "program" program in
        let ptext = get_str "program" (field "program line" pj "program") in
        let prog =
          match Text.parse ptext with
          | Ok p -> p
          | Error e -> fail "program: %s" (Text.error_to_string e)
        in
        (match Validate.check prog with
        | [] -> ()
        | e :: _ -> fail "program: %s" (Validate.error_to_string e));
        let events =
          List.map (fun l -> event_of_json (parse_line "event" l)) events
        in
        let t = { meta; program = prog; dict; events; expect } in
        if not (structurally_valid t) then
          fail "events: dictionary index out of range or bad loop";
        t
    | _ -> fail "truncated: expected header and program lines"
  with
  | t -> Ok t
  | exception Bad m -> Error ("r2cr: " ^ m)

let save ~path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> of_string s
  | exception Sys_error e -> Error ("r2cr: " ^ e)

let files ~dir =
  match Sys.readdir dir with
  | entries ->
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".r2cr")
      |> List.sort compare
      |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

(* --- rebuild under the recorded coordinates ------------------------ *)

let ok_or_fail = function Ok x -> x | Error e -> failwith ("r2cr: " ^ e)
let cost_profile meta = ok_or_fail (Cost.of_name meta.machine)

let build meta program =
  if meta.config = "baseline" then R2c_compiler.Driver.compile program
  else
    R2c_core.Pipeline.compile ~seed:meta.seed
      (ok_or_fail (Dconfig.of_name meta.config))
      program
