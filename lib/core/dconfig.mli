(** R2C diversity configuration.

    Every knob of Sections 4 and 5, plus the component-isolating presets
    used by the evaluation (Section 6.2.1–6.2.3): the paper measures Push,
    AVX, BTDP, Prolog and Layout in isolation and everything together as
    "full R2C". *)

type btra_setup =
  | Push
  | Naive  (** decoy-only pre-push: the race-window scheme of Section 5.1 —
               provided to demonstrate why R2C rejects it *)
  | Sse  (** 16-byte batches (Section 7.1 fallback) *)
  | Avx
  | Avx512  (** 64-byte batches (Section 7.1: half the moves) *)

type btra = {
  total : int;  (** BTRAs per call site (paper evaluates 10) *)
  setup : btra_setup;
  to_builtins : bool;
      (** also booby-trap call sites into unprotected library code — the
          paper's worst-case measurement configuration (Section 6.2) *)
  max_post : int;  (** upper bound on the callee-chosen post offset *)
  check_after_return : bool;
      (** Section 7.3's hardening: verify a random pre-BTRA after each
          return; corruption (an attacker probing return-address
          candidates) trips a booby trap *)
}

type btdp = {
  min_per_func : int;
  max_per_func : int;  (** paper evaluates 0..5 *)
  array_size : int;  (** pointers in the heap-allocated BTDP array *)
  guard_pages : int;  (** pages kept and read-protected *)
  alloc_rounds : int;  (** pages allocated before freeing all but the kept *)
  decoys : int;  (** extra BTDPs placed (only) in the data section, Figure 5 *)
  skip_frameless : bool;
      (** omit instrumentation for functions without stack writes
          (Section 5.2's optimization) *)
}

type t = {
  btra : btra option;
  btdp : btdp option;
  nops : (int * int) option;  (** NOPs per call site, inclusive range *)
  prolog_traps : (int * int) option;  (** traps per prologue *)
  shuffle_functions : bool;
  shuffle_globals : bool;
  global_padding_max : int;  (** random padding after each global, bytes *)
  shuffle_stack_slots : bool;
  slot_padding_max : int;
  randomize_regalloc : bool;
  oia : bool;  (** offset-invariant addressing; forced on when [btra] set *)
  xom : bool;  (** execute-only text (Section 3's assumption) *)
  aslr : bool;
  booby_trap_funcs : int;  (** booby-trap functions scattered in text *)
}

(** No protection at all — the paper's measurement baseline. *)
val baseline : t

(** Everything on (Figure 6's configuration): BTRAs with the given setup
    (default [Avx]) and 10 per call site including library call sites,
    0-5 BTDPs per function, 1-9 NOPs, 1-5 prolog traps, all shuffles, XOM,
    ASLR. *)
val full : ?setup:btra_setup -> unit -> t

(** Component isolations of Table 1. *)

val btra_push_only : t
val btra_avx_only : t
val btra_sse_only : t
val btra_avx512_only : t

(** Full R2C plus the Section 7.3 BTRA consistency checks. *)
val full_checked : t
val btdp_only : t
val prolog_only : t
val layout_only : t

(** Offset-invariant addressing alone (Section 6.2.1's 0.79% figure). *)
val oia_only : t

(** Every named configuration, in the order of the fuzz/validation matrix
    ([baseline], [full], [full-checked], [btra-push], [btra-sse],
    [btra-avx], [btra-avx512], [btdp], [prolog], [layout], [oia]) followed
    by [full-push] (full R2C with the push BTRA setup). *)
val named : (string * t) list

(** [of_name name] — lookup in {!named}. *)
val of_name : string -> (t, string) result

val describe : t -> string
