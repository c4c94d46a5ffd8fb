type btra_setup = Push | Naive | Sse | Avx | Avx512

type btra = {
  total : int;
  setup : btra_setup;
  to_builtins : bool;
  max_post : int;
  check_after_return : bool;
}

type btdp = {
  min_per_func : int;
  max_per_func : int;
  array_size : int;
  guard_pages : int;
  alloc_rounds : int;
  decoys : int;
  skip_frameless : bool;
}

type t = {
  btra : btra option;
  btdp : btdp option;
  nops : (int * int) option;
  prolog_traps : (int * int) option;
  shuffle_functions : bool;
  shuffle_globals : bool;
  global_padding_max : int;
  shuffle_stack_slots : bool;
  slot_padding_max : int;
  randomize_regalloc : bool;
  oia : bool;
  xom : bool;
  aslr : bool;
  booby_trap_funcs : int;
}

let baseline =
  {
    btra = None;
    btdp = None;
    nops = None;
    prolog_traps = None;
    shuffle_functions = false;
    shuffle_globals = false;
    global_padding_max = 0;
    shuffle_stack_slots = false;
    slot_padding_max = 0;
    randomize_regalloc = false;
    oia = false;
    xom = false;
    aslr = false;
    booby_trap_funcs = 0;
  }

let default_btra setup =
  { total = 10; setup; to_builtins = true; max_post = 4; check_after_return = false }

let default_btdp =
  {
    min_per_func = 0;
    max_per_func = 5;
    array_size = 48;
    guard_pages = 16;
    alloc_rounds = 64;
    decoys = 2;
    skip_frameless = true;
  }

let full ?(setup = Avx) () =
  {
    btra = Some (default_btra setup);
    btdp = Some default_btdp;
    nops = Some (1, 9);
    prolog_traps = Some (1, 5);
    shuffle_functions = true;
    shuffle_globals = true;
    global_padding_max = 64;
    shuffle_stack_slots = true;
    slot_padding_max = 32;
    randomize_regalloc = true;
    oia = true;
    xom = true;
    aslr = true;
    booby_trap_funcs = 48;
  }

(* The paper's BTRA isolation runs combine 10 BTRAs with 1-9 NOPs
   (Section 6.2.1). *)
let btra_push_only =
  {
    baseline with
    btra = Some (default_btra Push);
    nops = Some (1, 9);
    oia = true;
    booby_trap_funcs = 48;
  }

let btra_avx_only =
  {
    baseline with
    btra = Some (default_btra Avx);
    nops = Some (1, 9);
    oia = true;
    booby_trap_funcs = 48;
  }

let btra_sse_only =
  {
    baseline with
    btra = Some (default_btra Sse);
    nops = Some (1, 9);
    oia = true;
    booby_trap_funcs = 48;
  }

let btra_avx512_only =
  {
    baseline with
    btra = Some (default_btra Avx512);
    nops = Some (1, 9);
    oia = true;
    booby_trap_funcs = 48;
  }

let full_checked =
  let f = full () in
  {
    f with
    btra = Some { (default_btra Avx) with check_after_return = true };
  }

let btdp_only = { baseline with btdp = Some default_btdp }

let prolog_only = { baseline with prolog_traps = Some (1, 5) }

let layout_only =
  {
    baseline with
    shuffle_functions = true;
    shuffle_globals = true;
    global_padding_max = 64;
    shuffle_stack_slots = true;
    slot_padding_max = 32;
    randomize_regalloc = true;
  }

let oia_only = { baseline with oia = true }

let named =
  [
    ("baseline", baseline);
    ("full", full ());
    ("full-checked", full_checked);
    ("btra-push", btra_push_only);
    ("btra-sse", btra_sse_only);
    ("btra-avx", btra_avx_only);
    ("btra-avx512", btra_avx512_only);
    ("btdp", btdp_only);
    ("prolog", prolog_only);
    ("layout", layout_only);
    ("oia", oia_only);
    ("full-push", full ~setup:Push ());
  ]

let of_name name =
  match List.assoc_opt name named with
  | Some t -> Ok t
  | None -> Error ("unknown config " ^ name)

let describe t =
  let flags = ref [] in
  let add name cond = if cond then flags := name :: !flags in
  (match t.btra with
  | Some b ->
      add
        (Printf.sprintf "btra(%s,%d%s)"
           (match b.setup with
           | Push -> "push"
           | Naive -> "naive"
           | Sse -> "sse"
           | Avx -> "avx"
           | Avx512 -> "avx512")
           b.total
           ((if b.to_builtins then ",lib" else "")
           ^ if b.check_after_return then ",chk" else ""))
        true
  | None -> ());
  (match t.btdp with
  | Some b -> add (Printf.sprintf "btdp(%d-%d)" b.min_per_func b.max_per_func) true
  | None -> ());
  (match t.nops with Some (a, b) -> add (Printf.sprintf "nops(%d-%d)" a b) true | None -> ());
  (match t.prolog_traps with
  | Some (a, b) -> add (Printf.sprintf "prolog(%d-%d)" a b) true
  | None -> ());
  add "shuffle-funcs" t.shuffle_functions;
  add "shuffle-globals" t.shuffle_globals;
  add "shuffle-slots" t.shuffle_stack_slots;
  add "rand-regalloc" t.randomize_regalloc;
  add "oia" t.oia;
  add "xom" t.xom;
  add "aslr" t.aslr;
  match !flags with [] -> "baseline" | fs -> String.concat "+" (List.rev fs)
