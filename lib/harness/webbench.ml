module Webserver = R2c_workloads.Webserver
module Table = R2c_util.Table
module Stats = R2c_util.Stats

let run ?(seeds = [ 7; 19; 41; 67; 83 ]) ?(requests = 400) () =
  let open Results in
  let cfg = R2c_core.Dconfig.full () in
  let machines = R2c_machine.Cost.[ i9_9900k; epyc_rome ] in
  let baselines = Measure.baselines () in
  (* (server, machine, baseline, R2C) throughputs, requests per megacycle. *)
  let measured =
    List.concat_map
      (fun profile ->
        List.map
          (fun (fl, name) ->
            let program = Webserver.server fl ~requests in
            let base = (Measure.baseline ~profile baselines program).steady_cycles in
            (* Median of five runs at saturation, per the paper. *)
            let cycles =
              Stats.median
                (List.map
                   (fun seed ->
                     (Measure.run ~profile (R2c_core.Pipeline.compile ~seed cfg program))
                       .steady_cycles)
                   seeds)
            in
            ( name,
              profile.R2c_machine.Cost.name,
              Webserver.throughput_of_cycles ~requests base,
              Webserver.throughput_of_cycles ~requests cycles ))
          [ (`Nginx, "nginx"); (`Apache, "apache") ])
      machines
  in
  let paper server machine =
    if machine = "i9-9900K" then opt pct (List.assoc_opt server Paper.webserver_drop_intel)
    else
      let lo, hi = Paper.webserver_drop_amd in
      Str (Printf.sprintf "%s-%s" (Table.pct lo) (Table.pct hi))
  in
  let _, _, nginx_base, _ = List.hd measured in
  [
    table "servers" ~title:"Webserver throughput (requests per megacycle, saturated)"
      [
        left "server" "server"; left "machine" "machine"; col "baseline" "baseline";
        col "r2c" "R2C"; col "drop" "drop"; col "paper_drop" "paper drop";
      ]
      (List.map
         (fun (server, machine, base, r2c) ->
           [
             Str server; Str machine; f1 base; f1 r2c; pct (1.0 -. (r2c /. base));
             paper server machine;
           ])
         measured);
    (* The saturation sweep backing the measurement point. *)
    table "saturation" ~title:"saturation sweep (baseline nginx)"
      [ col "connections" "connections"; col "req_per_mcycle" "req/Mcycle" ]
      (List.map
         (fun (c, v) -> [ Int c; f1 v ])
         (Webserver.saturation_curve ~cpu_rate:nginx_base
            ~connections:[ 4; 8; 16; 24; 32; 48; 64 ]));
  ]
