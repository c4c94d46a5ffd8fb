open R2c_machine

type t = {
  img : Image.t;
  ra_off : int;
  buf_off : int;
  fp_off : int;
  session_off : int;
  frame_ra_value : int;
  pop_rdi : int option;
  sensitive_plt : int;
  text_base : int;
  data_base : int;
  motd_addr : int;
  default_cmd_delta : int;
  service_table_delta : int;
  exec_entry : int;
  exec_low16 : int;
}

let marker_byte = 0xa1

let find_gadget code_at ~first ~len =
  let rec scan addr =
    if addr >= first + len then None
    else
      match code_at addr with
      | Some (Insn.Pop Insn.RDI, l) -> (
          match code_at (addr + l) with
          | Some (Insn.Ret, _) -> Some addr
          | Some _ | None -> scan (addr + 1))
      | Some _ | None -> scan (addr + 1)
  in
  scan first

let measure img =
  let sym name =
    match Image.find_symbol img name with
    | Some a -> a
    | None -> failwith ("Reference.measure: no symbol " ^ name)
  in
  let proc = Process.start img in
  (* A recognisable pattern fills the buffer of the first two requests
     (measurement happens at the second request's breakpoint). *)
  Cpu.push_input proc.Process.cpu (String.make 48 (Char.chr marker_byte));
  Cpu.push_input proc.Process.cpu (String.make 48 (Char.chr marker_byte));
  let break = sym R2c_workloads.Vulnapp.break_symbol in
  (* Observe at the SECOND request's breakpoint: the frame then carries the
     previous request's residue (session pointer, dispatched function
     pointer) at the very slots the next request will reuse. *)
  let unreached o =
    failwith ("Reference.measure: never reached breakpoint: " ^ Process.outcome_to_string o)
  in
  let hit = function
    | `Hit -> ()
    | `Done o -> unreached o
    | `Step_fault f -> unreached (Process.Crashed f)
  in
  hit (Process.run_until proc ~break:[ break ]);
  hit (Process.resume proc ~break:[ break ]);
  let cpu = proc.Process.cpu in
  let mem = cpu.Cpu.mem in
  let rsp = Cpu.reg_get cpu RSP in
  let peek a = match Mem.peek_u64 mem a with Some v -> v | None -> 0 in
  (* main's call sites produce the frame's return address value. *)
  let main_ras =
    let acc = ref [] in
    Image.iter_symbols img (fun name addr ->
        if String.length name > 9 && String.sub name 0 9 = "__ra_main" then acc := addr :: !acc);
    !acc
  in
  let scan_words = 512 in
  let find_off pred =
    let rec go i = if i >= scan_words then None else if pred (peek (rsp + (8 * i))) then Some (8 * i) else go (i + 1) in
    go 0
  in
  let ra_off, frame_ra_value =
    match find_off (fun v -> List.mem v main_ras) with
    | Some off -> (off, peek (rsp + off))
    | None -> failwith "Reference.measure: frame return address not found"
  in
  (* The marker pattern locates the buffer (byte-granular). *)
  let buf_off =
    let rec go i =
      if i >= scan_words * 8 then failwith "Reference.measure: buffer not found"
      else
        let all_marked =
          List.for_all
            (fun k -> Mem.peek_u8 mem (rsp + i + k) = Some marker_byte)
            [ 0; 1; 2; 3; 4; 5; 6; 7 ]
        in
        if all_marked then i else go (i + 1)
    in
    go 0
  in
  let expected_fp = peek (sym "g_service_table") in
  let fp_off =
    match find_off (fun v -> v = expected_fp) with
    | Some off -> off
    | None -> failwith "Reference.measure: function pointer local not found"
  in
  let motd_addr = sym "g_motd" in
  let session_off =
    match
      find_off (fun v -> Addr.region_of v = Addr.Heap && peek (v + 8) = motd_addr)
    with
    | Some off -> off
    | None -> failwith "Reference.measure: session pointer not found"
  in
  let code_at a = Image.code_at img a in
  let pop_rdi = find_gadget code_at ~first:img.Image.text_base ~len:img.Image.text_len in
  let exec_entry = peek (sym "g_service_table" + 24) in
  {
    img;
    ra_off;
    buf_off;
    fp_off;
    session_off;
    frame_ra_value;
    pop_rdi;
    sensitive_plt = sym "sensitive";
    text_base = img.Image.text_base;
    data_base = img.Image.data_base;
    motd_addr;
    default_cmd_delta = sym "g_default_cmd" - motd_addr;
    service_table_delta = sym "g_service_table" - motd_addr;
    exec_entry;
    exec_low16 = exec_entry land 0xffff;
  }
