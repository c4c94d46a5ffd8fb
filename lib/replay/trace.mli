(** Recorded workload traces and the standalone [.r2cr] benchmark format.

    A trace is what the recorder captured at the environment boundary of
    one diversified run: every intercepted builtin call ([print_int],
    [read_input], [malloc], [sensitive], ...) with its argument registers,
    result, delivered payload and simulated-cycle timestamp, plus the
    profile the run is expected to reproduce (cycles, instructions,
    icache traffic, output digest). The trace embeds the IR program and
    the exact diversification coordinates ([config], [seed], [machine]),
    so a [.r2cr] file is a self-contained benchmark: replaying it
    recompiles the program under the same coordinates, stubs the
    environment with the recorded responses, and asserts the profile
    matches — the Wasm-R3 record/reduce/replay recipe applied to R2C's
    simulated machine. *)

(** One intercepted builtin call. [rdi]/[rsi] are the System-V argument
    registers at entry, [rax] the result; [data] carries the delivered
    bytes for a successful [read_input]. [cycles]/[insns] are the CPU
    counters right after the call — simulated time, so captures are
    deterministic. *)
type span = {
  builtin : string;
  rdi : int;
  rsi : int;
  rax : int;
  data : string option;
  cycles : float;
  insns : int;
}

(** The reduced event language. [Span] is a verbatim recorded call.
    [Feed i] is a reduced [read_input] span: only the delivered payload
    (interned in the dictionary) matters for re-execution, so the
    registers and timestamps are dropped. [Loop (body, n)] is [n]
    consecutive repetitions of [body] — periodic request traffic
    collapses to one iteration and a count. *)
type event = Span of span | Feed of int | Loop of event list * int

(** The profile the replayed run must reproduce. Counter fields are
    checked within a relative tolerance by {!Replayer.check}; exit code
    and output digest are exact. *)
type expect = {
  e_cycles : float;
  e_insns : int;
  e_accesses : int;  (** icache accesses *)
  e_misses : int;  (** icache misses *)
  e_exit : int;
  e_output_len : int;
  e_output_hash : int64;  (** FNV-1a 64 of the full output *)
}

(** Diversification coordinates: enough to rebuild the exact image. The
    [config] and [machine] names use the [r2cc] vocabulary ([full],
    [full-checked], [baseline], ... / cost-model names). *)
type meta = {
  workload : string;
  config : string;
  seed : int;
  machine : string;
  fuel : int;
}

type t = {
  meta : meta;
  program : Ir.program;
  dict : string array;  (** interned [Feed] payloads *)
  events : event list;
  expect : expect;
}

(** [output_hash s] — FNV-1a 64-bit digest, the output fingerprint stored
    in {!expect}. *)
val output_hash : string -> int64

(** [feeds t] — the [read_input] payload sequence the replayer queues,
    in delivery order: recorded data from successful [read_input] spans,
    dictionary payloads from [Feed]s, loops expanded. Empty reads and
    non-input builtins contribute nothing (the replayed program performs
    those calls itself). *)
val feeds : t -> string list

(** [span_count t] — recorded builtin calls after loop expansion
    ([Feed]s count as one each: they stand for a recorded call). *)
val span_count : t -> int

(** [size t] — serialized size in bytes of the event stream plus
    dictionary. This is the weight the reducer minimizes and the
    denominator of the reduction-ratio gate; the fixed header and
    embedded program are excluded so the ratio measures trace shrinkage,
    not program size. *)
val size : t -> int

(** [structurally_valid t] — dictionary indices in range, loop counts
    positive, loop bodies nonempty. Checked on load and on every reducer
    candidate. *)
val structurally_valid : t -> bool

(** [.r2cr] serialization: JSONL. Line 1 is the header (version, meta,
    expect, dictionary), line 2 the embedded IR program text, then one
    line per event. *)
val to_string : t -> string

(** [of_string s] — parse and structurally validate a [.r2cr] document
    (the embedded program must pass [Validate.check], dictionary indices
    must be in range, loop counts positive). *)
val of_string : string -> (t, string) result

val save : path:string -> t -> unit
val load : string -> (t, string) result

(** [files ~dir] — paths of the [*.r2cr] files under [dir], sorted. *)
val files : dir:string -> string list

(** [cost_profile meta] — the cost model named by [meta.machine]
    (case-insensitive). Parsed traces always name a known machine and
    config ({!of_string} rejects the rest); a hand-built [meta] with an
    unknown name raises [Failure] here or in {!build}. *)
val cost_profile : meta -> R2c_machine.Cost.profile

(** [build meta program] — recompile under the recorded coordinates:
    [Driver.compile] for [baseline], the diversifying [Pipeline.compile]
    with [meta.seed] otherwise. Record and replay both go through this,
    which is what makes the replayed image bit-identical to the recorded
    one. *)
val build : meta -> Ir.program -> R2c_machine.Image.t
