let src = Logs.Src.create "r2c.compiler" ~doc:"R2C compiler driver"

module Log = (val Logs.src_log src : Logs.LOG)

exception Invalid_program of Validate.error list

let compile_with_meta ?(opts = Opts.default) (p : Ir.program) =
  (match Validate.check p with
  | [] -> ()
  | errors -> raise (Invalid_program errors));
  let pairs = List.map (fun f -> Emit.emit_func_meta ~opts f) p.funcs in
  let emitted =
    List.map fst pairs
    @ List.map (Asm.of_raw ~size:opts.Opts.mdesc.Mdesc.insn_size) opts.Opts.raw_funcs
  in
  let img = Link.link ~opts ~main:p.main emitted p.globals in
  Log.debug (fun m ->
      m "linked %s: %d functions, %d bytes of text, %d bytes of data"
        p.main (Array.length img.R2c_machine.Image.funcs) img.R2c_machine.Image.text_len
        img.R2c_machine.Image.data_len);
  (img, List.map2 (fun (f : Ir.func) (_, m) -> (f.name, m)) p.funcs pairs)

let compile ?opts p = fst (compile_with_meta ?opts p)
