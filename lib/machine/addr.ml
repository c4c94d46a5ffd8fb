type t = int

let page_size = 4096
let page_shift = 12
let page_of a = a lsr page_shift
let page_base a = a land lnot (page_size - 1)
let page_offset a = a land (page_size - 1)

let align_up a ~align =
  assert (align > 0 && align land (align - 1) = 0);
  (a + align - 1) land lnot (align - 1)

(* Non-PIE text like the paper's Figure 2 (return address 0x40055d); data,
   then heap above it, in the PIE/mmap range; stack just below the canonical
   Linux default. Each region window leaves room for an ASLR slide. *)
let text_base = 0x400000
let text_limit = 0x8000000 (* 128 MiB of window for text + slide *)
let data_base = 0x5555_5555_0000
let data_limit = 0x5555_5f00_0000
let heap_base = 0x5555_6000_0000
let heap_limit = 0x5556_4000_0000
let stack_top = 0x7fff_ffff_f000
let stack_limit = 0x7fff_f000_0000

type region = Text | Data | Heap | Stack | Unmapped_region

let region_of a =
  if a >= text_base && a < text_limit then Text
  else if a >= data_base && a < data_limit then Data
  else if a >= heap_base && a < heap_limit then Heap
  else if a >= stack_limit && a <= stack_top then Stack
  else Unmapped_region

