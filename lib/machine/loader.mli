(** Program loading: maps an image into fresh memory and hands back a ready
    CPU.

    Text is mapped with the image's text permission ([rx] for the legacy
    baseline, [xo] when the execute-only assumption of Section 3 is in
    force), data read-write, both by {!Mem.map_from} from the image's
    pages ({!Image.text_page}, {!Image.data_page}): each is built on its
    first observation, once per image, and a run never observes
    execute-only text. The stack is mapped at the canonical top of user
    space. Loading copies no byte and builds neither the reference fetch
    table ({!Image.code_at}) nor {!Image.t.data_words}: its cost is
    O(pages) of page-table entries. *)

(** [load ?strict_align ?inject ?jit ?jit_cache ?jit_stats ~profile img].
    The fresh CPU gets a tier-3 runner. With [?jit] (default
    {!Jit.enabled}, i.e. on unless [R2C_JIT=0]) it compiles hot code into
    the code cache of [img] — shared by every process of the image — or
    into [?jit_cache], and counts into [?jit_stats] (see
    {!Process.jit_stats}); with [~jit:false] it never compiles and never
    runs compiled code. Loading builds no JIT state: the cache is built
    by the first run that needs it. An injector disables the attachment:
    injector presence already forces the reference tier. *)
val load :
  ?strict_align:bool ->
  ?inject:Inject.t ->
  ?jit:bool ->
  ?jit_cache:Jit.cache ->
  ?jit_stats:Jit.stats ->
  profile:Cost.profile ->
  Image.t ->
  Cpu.t

(** [clone ?inject ?jit ?jit_stats cpu] — a {!Cpu.clone} of [cpu] with
    [?inject] attached and its tier-3 runner armed exactly as {!load} arms
    a fresh CPU. Restoring a snapshot is [clone] of the snapshot CPU. *)
val clone : ?inject:Inject.t -> ?jit:bool -> ?jit_stats:Jit.stats -> Cpu.t -> Cpu.t
