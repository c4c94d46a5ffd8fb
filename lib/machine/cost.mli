(** Cycle cost model with the paper's four machine profiles (Section 6.1).

    Each profile gives per-class instruction costs, a front-end fetch
    bandwidth, instruction-cache geometry and miss penalty, and fixed costs
    for the intercepted library ("builtin") calls. The absolute values are
    first-principles estimates; what the reproduction relies on is the
    *structure*: BTRA pushes are store-port bound (one each), an AVX2 store
    moves 32 bytes for about the price of one push, and bigger call sites
    cost fetch bandwidth and icache lines. *)

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
  fetch_bytes_per_cycle : float;  (** front-end decode bandwidth *)
  icache_lines : int;
  icache_line_bytes : int;
  icache_miss_penalty : float;
  builtin_alloc : float;  (** malloc / malloc_pages / free *)
  builtin_mprotect : float;
  builtin_io : float;  (** print / read_input / sensitive / exit *)
}

val i9_9900k : profile
val epyc_rome : profile

(** The paper's four evaluation machines: i9-9900K, EPYC Rome,
    Threadripper 3970X, Xeon 8358. *)
val all_machines : profile list

(** [of_name name] — the machine whose profile name is [name], or whose
    short name ([i9], [epyc], [tr], [xeon]) it is, ignoring case. *)
val of_name : string -> (profile, string) result

(** [base_cost p i] — execution cost excluding front-end effects (those are
    charged by the CPU from [size] and the icache). *)
val base_cost : profile -> Insn.t -> float

(** [builtin_cost p name] — cost of an intercepted library call. *)
val builtin_cost : profile -> string -> float
