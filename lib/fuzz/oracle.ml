module D = R2c_core.Dconfig
module Pipeline = R2c_core.Pipeline
module Process = R2c_machine.Process
module Fault = R2c_machine.Fault

type plant = Sub_to_add | Drop_stores | Off_by_one

let map_instrs f (p : Ir.program) =
  {
    p with
    Ir.funcs =
      List.map
        (fun (fn : Ir.func) ->
          {
            fn with
            Ir.blocks =
              List.map
                (fun (b : Ir.block) -> { b with Ir.body = List.filter_map f b.Ir.body })
                fn.Ir.blocks;
          })
        p.Ir.funcs;
  }

let apply_plant plant p =
  match plant with
  | Sub_to_add ->
      map_instrs
        (function
          | Ir.Binop (v, Ir.Sub, a, b) -> Some (Ir.Binop (v, Ir.Add, a, b))
          | i -> Some i)
        p
  | Drop_stores ->
      map_instrs (function Ir.Store _ -> None | i -> Some i) p
  | Off_by_one ->
      map_instrs
        (function
          | Ir.Binop (v, Ir.Add, a, Ir.Const c) -> Some (Ir.Binop (v, Ir.Add, a, Ir.Const (c + 1)))
          | i -> Some i)
        p

(* Baseline first: a config-independent miscompile then fails on the
   cheapest compile, which is the point the shrinker re-runs. *)
let matrix = List.filter (fun (name, _) -> name <> "full-push") D.named

let find_cfg name = List.assoc name matrix

type failure = { point : string; cseed : int; expected : string; got : string }

type verdict = Pass of int | Fail of failure list | Skip of string

let obs ~exit_code ~output = Printf.sprintf "exit:%d\n%s" exit_code output

let reference ~fuel p =
  match Interp.run ~fuel p with
  | Ok r -> Ok (obs ~exit_code:r.Interp.exit_code ~output:r.Interp.output)
  | Error e -> Error (Interp.error_to_string e)

let run_compiled ?plant ~fuel ~seed cfg p =
  let q = match plant with None -> p | Some pl -> apply_plant pl p in
  match Pipeline.compile ~seed cfg q with
  | exception e -> "compile-error:" ^ Printexc.to_string e
  | img -> (
      let proc = Process.start ~strict_align:true ~fuel img in
      match Process.run proc with
      | Process.Exited c -> obs ~exit_code:c ~output:(Process.output proc)
      | Process.Crashed f -> "crash:" ^ Fault.to_string f
      | Process.Timeout -> "timeout")

let default_fuel = 5_000_000
let machine_fuel fuel = fuel * 40

let check ?plant ?(fuel = default_fuel) ?(seed = 3) ?(rerand = [ 1003; 2003 ]) ?jobs p =
  match Validate.check p with
  | _ :: _ -> Skip "program does not validate"
  | [] -> (
      match reference ~fuel p with
      | Error e -> Skip e
      | Ok expected ->
          let mfuel = machine_fuel fuel in
          (* Matrix points first, then the rerandomized variants of the
             full configuration: equivalence across fresh diversification
             seeds, not just against one. Each point compiles and runs its
             own images, so the whole matrix fans out over the domain pool
             (serial when nested under a parallel campaign, or jobs = 1). *)
          let probes =
            List.map (fun (point, cfg) -> (point, seed, cfg)) matrix
            @ List.map (fun s -> ("full", s, D.full ())) rerand
          in
          let fails =
            R2c_util.Parallel.map ?jobs
              (fun (point, cseed, cfg) ->
                let got = run_compiled ?plant ~fuel:mfuel ~seed:cseed cfg p in
                if got <> expected then Some { point; cseed; expected; got } else None)
              probes
            |> List.filter_map Fun.id
          in
          if fails = [] then Pass (List.length probes) else Fail fails)

let diverges ?plant ?(fuel = default_fuel) ~seed ~cfg p =
  Validate.check p = []
  &&
  match reference ~fuel p with
  | Error _ -> false
  | Ok expected -> run_compiled ?plant ~fuel:(machine_fuel fuel) ~seed cfg p <> expected
