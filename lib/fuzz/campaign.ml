module Rng = R2c_util.Rng

type report = {
  seed : int;
  requested : int;
  programs : int;
  skipped : int;
  points : int;
  divergences : int;
  reproducers : (string * int) list;
}

let shrink_against ?plant ?fuel (f : Oracle.failure) p =
  let cfg = Oracle.find_cfg f.Oracle.point in
  Shrink.run
    ~still_fails:(fun q -> Oracle.diverges ?plant ?fuel ~seed:f.Oracle.cseed ~cfg q)
    p

let run ?corpus_dir ?fuel ?jobs ~seed ~count () =
  (* Program seeds are drawn sequentially up front — the exact stream the
     serial loop drew — then each program's generate/check/shrink runs as
     one independent task on the domain pool. [Parallel.map] preserves
     program order, so counts and reproducer order are identical at any
     [jobs]. [jobs] is threaded into {!Oracle.check} too: at [jobs = 1]
     the whole campaign is the historical serial code path, while a
     parallel campaign makes the nested matrix fan-out degrade to serial
     inside each worker (no domain pools inside domain pools). *)
  let prng = Rng.create seed in
  let pseeds = ref [] in
  for _ = 1 to count do
    pseeds := (Int64.to_int (Rng.int64 prng) land 0x3fff_ffff) :: !pseeds
  done;
  let outcomes =
    R2c_util.Parallel.map ?jobs
      (fun pseed ->
        let p = Gen.v2 ~seed:pseed () in
        match Oracle.check ?fuel ?jobs p with
        | Oracle.Pass n -> `Pass n
        | Oracle.Skip s -> `Skip s
        | Oracle.Fail (f0 :: _) ->
            let shrunk = shrink_against ?fuel f0 p in
            let size = Ir.program_size shrunk in
            let saved =
              match corpus_dir with
              | Some dir ->
                  let name = Printf.sprintf "div-seed%d-%s" pseed f0.Oracle.point in
                  Corpus.save ~dir ~name shrunk
              | None -> Printf.sprintf "<unsaved div-seed%d>" pseed
            in
            `Fail (saved, size)
        | Oracle.Fail [] -> assert false)
      (List.rev !pseeds)
  in
  let points =
    List.fold_left (fun acc -> function `Pass n -> n | _ -> acc) 0 outcomes
  in
  {
    seed;
    requested = count;
    programs = List.length outcomes;
    skipped = List.length (List.filter (function `Skip _ -> true | _ -> false) outcomes);
    points;
    divergences = List.length (List.filter (function `Fail _ -> true | _ -> false) outcomes);
    reproducers = List.filter_map (function `Fail r -> Some r | _ -> None) outcomes;
  }

type self_check = {
  caught : bool;
  shrunk_size : int;
  reproducer : string;
  roundtrip_ok : bool;
  still_fails : bool;
}

let default_out_dir () = Filename.concat (Filename.get_temp_dir_name ()) "r2c_fuzz"

let self_check ?out_dir ?fuel ~seed () =
  let out_dir = match out_dir with Some d -> d | None -> default_out_dir () in
  let plant = Oracle.Sub_to_add in
  let p = Gen.v2 ~seed () in
  match Oracle.check ~plant ?fuel p with
  | Oracle.Pass _ | Oracle.Skip _ ->
      (* Generator v2 always emits an output-visible Sub in main, so a
         clean verdict here means the oracle itself is broken. *)
      { caught = false; shrunk_size = 0; reproducer = ""; roundtrip_ok = false; still_fails = false }
  | Oracle.Fail (f0 :: _) ->
      let cfg = Oracle.find_cfg f0.Oracle.point in
      (* Isolate the planted bug: the candidate must diverge with the plant
         and agree without it, so shrinking cannot drift onto an unrelated
         genuine divergence. *)
      let still_fails q =
        Oracle.diverges ~plant ?fuel ~seed:f0.Oracle.cseed ~cfg q
        && not (Oracle.diverges ?fuel ~seed:f0.Oracle.cseed ~cfg q)
      in
      let shrunk = Shrink.run ~still_fails p in
      let path =
        Corpus.save ~dir:out_dir ~name:(Printf.sprintf "selfcheck-sub-add-seed%d" seed) shrunk
      in
      let roundtrip_ok =
        match Corpus.load path with
        | Ok q -> Validate.check q = [] && still_fails q
        | Error _ -> false
      in
      {
        caught = true;
        shrunk_size = Ir.program_size shrunk;
        reproducer = Filename.basename path;
        roundtrip_ok;
        still_fails = still_fails shrunk;
      }
  | Oracle.Fail [] -> assert false

let replay ?fuel ~dir () =
  List.filter_map
    (fun path ->
      match Corpus.load path with
      | Error e -> Some (path, "parse: " ^ e)
      | Ok p -> (
          match Validate.check p with
          | e :: _ -> Some (path, "validate: " ^ Validate.error_to_string e)
          | [] -> (
              match Oracle.check ?fuel p with
              | Oracle.Pass _ -> None
              | Oracle.Skip s -> Some (path, "skip: " ^ s)
              | Oracle.Fail (f :: _) ->
                  Some
                    ( path,
                      Printf.sprintf "divergence at %s (seed %d)" f.Oracle.point
                        f.Oracle.cseed )
              | Oracle.Fail [] -> None)))
    (Corpus.files ~dir)
