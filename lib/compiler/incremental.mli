(** Per-function incremental code generation with a content-keyed cache.

    A cache entry is one emitted function body (plus its translation-
    validation metadata) keyed by the triple the emission actually
    depends on: the IR function's digest, a digest of every
    diversification decision the {!Opts.t} hooks will hand this function
    (the "dconfig slice" — materialized by probing the hooks, so
    program-wide streams like BTRA planning invalidate exactly the
    functions whose plans moved), and the {!Mdesc.t} fingerprint.
    A build recompiles only cache misses, fanned over
    [R2c_util.Parallel], and re-links. The cache also keeps the last
    build's {!Link.plan} (symbols interned, references resolved to ids):
    a rebuild of the same program under the same key token whose bodies
    all hit is one {!Link.place} — layout by integer arithmetic and
    nothing else. [poison], a key-memo reset and any installed
    miss drop the plan.

    Contract (enforced by the rerand gate and the differential test
    battery): the image a build returns is byte-identical to a cold
    {!Driver.compile} under the same options — the cache can only make
    compilation faster, never different.

    The [salt] covers everything the slice probes cannot see without
    running the register allocator: callers hash the diversification
    config and per-function body seed into it (see
    [R2c_core.Pipeline.compile_incremental]). Thread-safety: builds may
    be called concurrently from multiple domains sharing one [t]; the
    cache phases are mutex-protected and emission itself runs unlocked. *)

type stats = {
  hits : int;
  misses : int;
  missed : string list;  (** names of the recompiled functions, in program order *)
}

type t

val create : unit -> t

(** Resident entries. *)
val size : t -> int

(** [build_with_meta ?jobs ?key_token t ~opts ~salt p] — the linked
    image, per-function lowering metadata for the translation validator,
    and this build's cache traffic. Raises {!Driver.Invalid_program} like
    the cold driver.

    [key_token], when given, asserts that every emission-relevant
    decision in [opts], and every option the link plan reads (machine
    description, [constructors], [func_alias], [raw_funcs],
    [extra_globals]), is a pure function of the token — so consecutive
    builds of the physically-same program under the same token may reuse
    the previous build's cache keys, raw-function templates and link plan
    without re-probing the hooks; only the layout hooks may change. The
    steady-state rotation path ({!R2c_core.Pipeline.compile_incremental})
    passes its coordinate salt here, because rotations only override
    link-level hooks; hand-assembled [opts] values must omit it. *)
val build_with_meta :
  ?jobs:int ->
  ?key_token:string ->
  t ->
  opts:Opts.t ->
  salt:string ->
  Ir.program ->
  R2c_machine.Image.t * (string * Emit.tvmeta) list * stats

(** Test hook: plant [payload] in the cache under the key [f] gets with
    [opts]/[salt], so the next build hits a deliberately wrong entry.
    The stale-cache regression tests use this to prove the equality gate
    and the translation validator both catch cache corruption. *)
val poison :
  t -> opts:Opts.t -> salt:string -> Ir.func -> payload:(Asm.emitted * Emit.tvmeta) -> unit
