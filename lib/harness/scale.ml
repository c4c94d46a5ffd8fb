open R2c_machine

type row = {
  funcs : int;
  ir_instrs : int;
  text_kb : int;
  data_kb : int;
  compile_seconds : float;
  run_ok : bool;
}

let run ?(sizes = [ 500; 2000; 8000 ]) () =
  let check program =
    let expected =
      match Interp.run ~fuel:200_000_000 program with
      | Ok r -> r.Interp.output
      | Error e -> failwith (Interp.error_to_string e)
    in
    let t0 = Sys.time () in
    let img = R2c_core.Pipeline.compile ~seed:6 (R2c_core.Dconfig.full ()) program in
    let compile_seconds = Sys.time () -. t0 in
    let proc = Process.start ~fuel:200_000_000 img in
    let run_ok =
      match Process.run proc with
      | Process.Exited 0 -> Process.output proc = expected
      | Process.Crashed _ | Process.Exited _ | Process.Timeout -> false
    in
    (img, compile_seconds, run_ok)
  in
  let browser_row =
    let program = R2c_workloads.Browser.program ~pages:24 in
    let img, compile_seconds, run_ok = check program in
    {
      funcs = List.length program.Ir.funcs;
      ir_instrs = Ir.program_size program;
      text_kb = img.Image.text_len / 1024;
      data_kb = img.Image.data_len / 1024;
      compile_seconds;
      run_ok;
    }
  in
  browser_row
  :: List.map
    (fun funcs ->
      let program = R2c_workloads.Genprog.generate ~seed:42 ~funcs in
      let img, compile_seconds, run_ok = check program in
      {
        funcs;
        ir_instrs = Ir.program_size program;
        text_kb = img.Image.text_len / 1024;
        data_kb = img.Image.data_len / 1024;
        compile_seconds;
        run_ok;
      })
    sizes

let results rows =
  let open Results in
  [
    table "programs"
      ~title:"Scalability: full-R2C compilation (first row: the browser-shaped workload)"
      [
        col "functions" "functions"; col "ir_instrs" "IR instrs"; col "text_kb" "text KB";
        col "data_kb" "data KB"; col ~kind:Timed "compile_s" "compile s";
        left "correct" "correct";
      ]
      (List.map
         (fun r ->
           [
             Int r.funcs; Int r.ir_instrs; Int r.text_kb; Int r.data_kb;
             Float (Printf.sprintf "%.2f", r.compile_seconds);
             Str (if r.run_ok then "yes" else "NO");
           ])
         rows);
    Note
      "paper: compiles WebKit (4.5M lines) and Chromium (32M lines); browser test\n\
       suites pass after disabling R2C for 3 functions (Section 6.3/7.4.2).";
  ]
