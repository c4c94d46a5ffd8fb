open R2c_machine

type kind = K_ret | K_jmp_ind | K_call_ind

type gadget = {
  g_off : int;  (* text-relative byte offset (ASLR-independent) *)
  g_len : int;  (* bytes *)
  g_insns : int;  (* decoded instructions including the terminator *)
  g_kind : kind;
  g_bytes : string;
}

(* The attacker's decoder: single-byte opcode dispatch over the
   pseudo-encoding's tag bytes (Image.opcode_tag), with a representative
   length per tag. Direct transfers, traps and halts surrender control to
   a fixed location, so they end a prospective gadget without producing
   one; bytes that match no tag (interior encoding bytes, zero padding)
   decode as invalid. *)
let classify byte =
  match byte with
  | 0xc3 -> `Term (K_ret, 1)
  | 0xfe -> `Term (K_jmp_ind, 2)
  | 0xff -> `Term (K_call_ind, 2)
  | 0xcc | 0xf4 | 0xe9 | 0xe8 -> `Invalid
  | 0x48 -> `Op 3 (* mov *)
  | 0x8a -> `Op 3 (* mov8 *)
  | 0x8d -> `Op 3 (* lea *)
  | 0x68 -> `Op 5 (* push *)
  | 0x58 -> `Op 2 (* pop *)
  | 0x01 -> `Op 3 (* alu *)
  | 0xf7 -> `Op 4 (* div *)
  | 0xf6 -> `Op 3 (* neg *)
  | 0x39 -> `Op 3 (* cmp *)
  | 0x0f -> `Op 4 (* setcc *)
  | 0x90 -> `Op 1 (* nop *)
  | 0xc5 -> `Op 3 (* vload / vzeroupper *)
  | 0xc4 -> `Op 4 (* vstore *)
  | 0x66 | 0x67 -> `Op 3 (* sse *)
  | 0x62 | 0x63 -> `Op 6 (* avx-512 *)
  | _ -> `Invalid

(* Materialise the text segment exactly as the loader does; gaps (function
   padding, the builtin PLT region) stay zero and decode as invalid. *)
let text_bytes (img : Image.t) =
  let b = Bytes.make img.text_len '\x00' in
  Array.iter
    (fun (c : Image.chunk) ->
      let text = c.c_body.b_text in
      Bytes.blit_string text 0 b (c.c_entry - img.text_base) (String.length text))
    img.chunks;
  Bytes.unsafe_to_string b

let scan ?(max_insns = 5) img =
  let text = text_bytes img in
  let n = String.length text in
  let out = ref [] in
  for off = n - 1 downto 0 do
    let rec walk pos count =
      if count > max_insns || pos >= n then ()
      else
        match classify (Char.code text.[pos]) with
        | `Invalid -> ()
        | `Term (k, l) ->
            if pos + l <= n then
              out :=
                {
                  g_off = off;
                  g_len = pos + l - off;
                  g_insns = count + 1;
                  g_kind = k;
                  g_bytes = String.sub text off (pos + l - off);
                }
                :: !out
        | `Op l -> walk (pos + l) (count + 1)
    in
    walk off 0
  done;
  !out

(* Offsets are text-relative, so the survivor intersection is immune to
   ASLR slides: a gadget survives diversification only if both its
   location and its bytes are identical in every variant — the static
   analogue of the AOCR adversary correlating leaked pages. *)
let key g = (g.g_off, g.g_bytes)

let survivors = function
  | [] -> []
  | first :: rest ->
      let sets =
        List.map
          (fun gs ->
            let h = Hashtbl.create (max 16 (2 * List.length gs)) in
            List.iter (fun g -> Hashtbl.replace h (key g) ()) gs;
            h)
          rest
      in
      List.filter (fun g -> List.for_all (fun h -> Hashtbl.mem h (key g)) sets) first
