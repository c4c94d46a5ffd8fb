type profile = {
  name : string;
  alu : float;
  mov_rr : float;
  mov_load : float;
  mov_store : float;
  lea : float;
  push : float;
  pop : float;
  div : float;
  setcc : float;
  jmp : float;
  jcc_taken : float;
  jcc_not_taken : float;
  call : float;
  call_ind : float;
  ret : float;
  nop : float;
  trap : float;
  vload : float;
  vstore : float;
  vzeroupper : float;
  halt : float;
  fetch_bytes_per_cycle : float;
  icache_lines : int;
  icache_line_bytes : int;
  icache_miss_penalty : float;
  builtin_alloc : float;
  builtin_mprotect : float;
  builtin_io : float;
}

(* Costs are amortized-throughput estimates for wide out-of-order cores:
   fire-and-forget stores (pushes, vector stores) cost a fraction of a
   cycle because the store buffer absorbs them; dependent loads and
   call/return latencies dominate baselines. *)

(* A recent high-frequency Intel client core: wide fetch, fast caches. *)
let i9_9900k = {
  name = "i9-9900K";
  alu = 0.42; mov_rr = 0.25; mov_load = 0.95; mov_store = 0.5;
  lea = 0.28; push = 0.29; pop = 0.42; div = 23.0; setcc = 0.4;
  jmp = 1.5; jcc_taken = 2.5; jcc_not_taken = 0.45;
  call = 3.7; call_ind = 5.0; ret = 3.0; nop = 0.08; trap = 0.5;
  vload = 0.3; vstore = 0.32; vzeroupper = 0.25; halt = 1.0;
  fetch_bytes_per_cycle = 28.0;
  icache_lines = 512; icache_line_bytes = 64; icache_miss_penalty = 9.0;
  builtin_alloc = 90.0; builtin_mprotect = 320.0; builtin_io = 240.0;
}

(* Server-class Zen 2: slightly slower vector stores, bigger miss cost. *)
let epyc_rome = {
  name = "EPYC Rome";
  alu = 0.42; mov_rr = 0.25; mov_load = 1.0; mov_store = 0.5;
  lea = 0.28; push = 0.3; pop = 0.42; div = 23.0; setcc = 0.4;
  jmp = 1.6; jcc_taken = 2.5; jcc_not_taken = 0.45;
  call = 3.8; call_ind = 5.1; ret = 3.1; nop = 0.09; trap = 0.5;
  vload = 0.3; vstore = 0.33; vzeroupper = 0.25; halt = 1.0;
  fetch_bytes_per_cycle = 26.0;
  icache_lines = 512; icache_line_bytes = 64; icache_miss_penalty = 10.0;
  builtin_alloc = 100.0; builtin_mprotect = 340.0; builtin_io = 260.0;
}

(* Zen 2 HEDT: same core as Rome with client memory parameters. *)
let tr_3970x = {
  name = "TR 3970X";
  alu = 0.42; mov_rr = 0.25; mov_load = 1.0; mov_store = 0.5;
  lea = 0.28; push = 0.3; pop = 0.42; div = 23.0; setcc = 0.4;
  jmp = 1.6; jcc_taken = 2.5; jcc_not_taken = 0.45;
  call = 3.8; call_ind = 5.1; ret = 3.1; nop = 0.09; trap = 0.5;
  vload = 0.3; vstore = 0.33; vzeroupper = 0.25; halt = 1.0;
  fetch_bytes_per_cycle = 26.0;
  icache_lines = 512; icache_line_bytes = 64; icache_miss_penalty = 9.5;
  builtin_alloc = 95.0; builtin_mprotect = 330.0; builtin_io = 250.0;
}

(* Ice Lake server: lower clock, narrower effective fetch under pressure and
   the most expensive front-end misses — the machine with the highest R2C
   overhead in Figure 6 (8.5% geomean, omnetpp at 21%). *)
let xeon_8358 = {
  name = "Xeon 8358";
  alu = 0.42; mov_rr = 0.25; mov_load = 0.92; mov_store = 0.5;
  lea = 0.28; push = 0.36; pop = 0.42; div = 23.0; setcc = 0.4;
  jmp = 1.7; jcc_taken = 2.5; jcc_not_taken = 0.45;
  call = 3.9; call_ind = 5.2; ret = 3.2; nop = 0.12; trap = 0.5;
  vload = 0.3; vstore = 0.31; vzeroupper = 0.25; halt = 1.0;
  fetch_bytes_per_cycle = 22.0;
  icache_lines = 512; icache_line_bytes = 64; icache_miss_penalty = 12.0;
  builtin_alloc = 105.0; builtin_mprotect = 360.0; builtin_io = 280.0;
}

let all_machines = [ i9_9900k; epyc_rome; tr_3970x; xeon_8358 ]

let of_name name =
  let key = String.lowercase_ascii name in
  match List.find_opt (fun p -> String.lowercase_ascii p.name = key) all_machines with
  | Some p -> Ok p
  | None -> (
      match key with
      | "i9" -> Ok i9_9900k
      | "epyc" -> Ok epyc_rome
      | "tr" -> Ok tr_3970x
      | "xeon" -> Ok xeon_8358
      | _ -> Error ("unknown machine " ^ name))

let base_cost p (i : Insn.t) =
  match i with
  | Mov (Reg _, Reg _) | Mov (Reg _, Imm _) -> p.mov_rr
  | Mov (Reg _, Mem _) -> p.mov_load
  | Mov (Mem _, _) -> p.mov_store
  | Mov (Imm _, _) -> p.alu (* rejected by the CPU; cost irrelevant *)
  | Mov8 (Reg _, Mem _) -> p.mov_load
  | Mov8 (Mem _, _) -> p.mov_store
  | Mov8 (_, _) -> p.mov_rr
  | Lea _ -> p.lea
  | Push _ -> p.push
  | Pop _ -> p.pop
  | Binop _ | Neg _ | Cmp _ -> p.alu
  | Div _ | Rem _ -> p.div
  | Setcc _ -> p.setcc
  | Jmp _ | Jmp_ind _ -> p.jmp
  | Jcc _ -> p.jcc_not_taken (* the CPU adds the taken-branch delta *)
  | Call _ -> p.call
  | Call_ind _ -> p.call_ind
  | Ret -> p.ret
  | Nop _ -> p.nop
  | Trap -> p.trap
  | Vload _ -> p.vload
  | Vstore _ -> p.vstore
  | Vload128 _ -> p.vload *. 0.85
  | Vstore128 _ -> p.vstore *. 0.85
  | Vload512 _ -> p.vload *. 1.15
  | Vstore512 _ -> p.vstore *. 1.15
  | Vzeroupper -> p.vzeroupper
  | Halt -> p.halt

let builtin_cost p = function
  | "malloc" | "malloc_pages" | "free" -> p.builtin_alloc
  | "mprotect_noread" -> p.builtin_mprotect
  | _ -> p.builtin_io
