let used x = x + 1
let unused = 0
let tested = 0
let hooked = 0

module Inner = struct
  let deep = 1
end

type shown = { x : int }
type hidden = { h : int }

let make_hidden () = { h = 0 }

type counter = { mutable n : int }

let counter = { n = 0 }

type cell = { mutable v : int }
type frozen = { mutable f : int }

let frozen = { f = 0 }
