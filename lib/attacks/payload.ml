let le64 v = String.init 8 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let slice ~values ~from_off ~upto_off =
  assert (from_off <= upto_off);
  String.init (upto_off - from_off) (fun i ->
      let off = from_off + i in
      let word = values.(off / 8) in
      Char.chr ((word lsr (8 * (off mod 8))) land 0xff))

let fill n = String.make n 'A'

let plt_addr_of ?(base = R2c_machine.Addr.text_base) name =
  let rec idx i = function
    | [] -> 0
    | n :: tl -> if n = name then i else idx (i + 1) tl
  in
  base + (16 * idx 0 R2c_machine.Image.builtin_names)
