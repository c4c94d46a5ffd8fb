(** Executable models of the related defenses compared in Table 3.

    Each model is a diversity configuration plus the defense-specific
    behaviours the attacks interact with:

    - {b unprotected} — W^X only; the legacy baseline every attack beats.
    - {b aslr} — page-granular slides, readable text; what PIROP and
      JIT-ROP were built to beat.
    - {b CodeArmor} [19] — code-space virtualization: function shuffling,
      execute-only text, re-randomization on worker respawn, and
      code-pointer abstraction (modelled as CPH trampolines). Susceptible
      to AOCR (Section 8.1).
    - {b TASR} [10] — live re-randomization at I/O boundaries, modelled as
      a fresh layout on every attacker interaction window; data layout
      untouched, so AOCR's steps survive.
    - {b StackArmor} [20] — stack-frame diversification: slot shuffling
      plus heavy frame padding; no code or data-section protection.
    - {b Readactor} [25] — function shuffling + XOM + code-pointer hiding
      (trampolines) + booby-trapped trampoline table; the defense AOCR
      broke.
    - {b kR^X} [56] — return-address decoys: a single decoy per return
      address (BTRA with R=1), XOM, shuffling; no heap-pointer protection
      (Table 3 footnote 3).
    - {b R2C} — the full system (Figure 6 configuration).

    [cph] makes taken function addresses point at trampolines;
    [rerandomize] gives every respawned worker a fresh layout. *)

type t = {
  name : string;
  cfg : R2c_core.Dconfig.t;
  cph : bool;
  rerandomize : bool;
  shadow_stack : bool;  (** deploy under backward-edge CFI (Section 8.2) *)
  paper_overhead : string;  (** as reported in Table 3 *)
  cpp_support : bool;  (** Table 3's C++ column *)
  footnote : string;
}

val unprotected : t
val tasr : t
val readactor : t
val r2c : t

(** The Table 3 rows, in paper order. *)
val all : t list

(** R2C variants for the extension experiments of Sections 5.1 and 7.3:
    the rejected naive (race-window) decoy scheme, the post-return BTRA
    consistency checks, non-PIE builds for the worker-respawn brute-force
    scenario, and load-time re-randomization. *)

val r2c_naive : t
val r2c_checked : t
val r2c_nopie : t
val r2c_checked_nopie : t
val r2c_rerand : t

(** Section 8.2: a backward-edge-CFI (shadow stack) deployment, alone and
    composed with R2C — enforcement stops every return-address corruption
    but is blind to AOCR's forward-edge whole-function reuse. *)
val cfi : t

val r2c_cfi : t
val variants : t list

(** [find name] — the model in {!all} or {!variants} named [name], ignoring
    case. *)
val find : string -> t option

(** [build t ~seed program ~extra_raw] — compile a program under the model
    (adds CPH trampolines when the model hides code pointers). *)
val build :
  t ->
  seed:int ->
  extra_raw:R2c_compiler.Opts.raw_func list ->
  Ir.program ->
  R2c_machine.Image.t

(** [build_vulnapp t ~seed] — the vulnerable server under the model. *)
val build_vulnapp : t -> seed:int -> R2c_machine.Image.t
