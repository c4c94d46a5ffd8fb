type t = { read : bool; write : bool; exec : bool }

let none = { read = false; write = false; exec = false }
let rw = { read = true; write = true; exec = false }
let rx = { read = true; write = false; exec = true }
let xo = { read = false; write = false; exec = true }

let to_string p =
  Printf.sprintf "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.exec then 'x' else '-')
