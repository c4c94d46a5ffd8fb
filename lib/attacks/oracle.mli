(** The attacker's interface to a victim process: the vulnerable server
    ({!R2c_workloads.Vulnapp}).

    Primitives mirror the threat model (Section 3): a deterministic stack
    leak (Malicious Thread Blocking), arbitrary read/write through the
    assumed memory-corruption vulnerability, input injection into the
    server's real (overflowing) [read_input], and a crash-restart oracle
    for worker-respawn servers. A faulting read/write kills the process —
    and if it hit a booby trap or guard page, the defender's monitoring has
    seen it.

    The MTB breakpoint sits at [Vulnapp.break_symbol]; {!to_serving} walks
    to the serving state every attack starts from, and {!compromised} is
    the success test the marker-chain attacks share.

    {!proc} is the target's current process; attacks must not consult it
    (or its image) for layout knowledge (that is what {!Reference} is
    for) — it is exposed for harness-side scoring and for the breakpoint
    scaffolding that stands in for MTB. *)

type t

(** [attach ?relink img] — load the target and position the MTB breakpoint
    at the server's serving point. [relink] is TASR-style
    re-randomization: a fresh layout on every respawn and every {!send}. *)
val attach : ?relink:(unit -> R2c_machine.Image.t) -> R2c_machine.Image.t -> t

val proc : t -> R2c_machine.Process.t

(** [to_break t] — run (or re-run, under [relink]) until the breakpoint.
    [`Done] carries the final outcome when the breakpoint is never
    reached. *)
val to_break : t -> [ `Break | `Done of R2c_machine.Process.outcome ]

(** [to_serving t] — {!to_break}, then on to the second request's
    breakpoint: the mid-request state every leak is taken in (the frame
    then carries the first request's residue). [Error] is the note saying
    which stop was never reached. *)
val to_serving : t -> (unit, string) result

(** [rsp t] — stack pointer at the current stop. *)
val rsp : t -> int

(** [leak_at t ~addr ~words] — [words] 64-bit words upward from [addr]
    (usually {!rsp}); unmapped words read as 0. *)
val leak_at : t -> addr:int -> words:int -> int array

(** [to_symbol t sym] — MTB at an arbitrary named instruction (e.g. a
    specific call site). Steps over the current position first when
    already there; a fault on that step ends the process with the fault
    itself. *)
val to_symbol : t -> string -> [ `Break | `Done of R2c_machine.Process.outcome ]

(** [step t] — advance the frozen victim by exactly one instruction (the
    race-window observation of Section 5.1). *)
val step : t -> (unit, R2c_machine.Fault.t) result

(** [arb_read t addr] / [arb_write t addr v] — the corruption primitives; a
    fault kills the process (restart required) and is recorded. *)
val arb_read : t -> int -> (int, R2c_machine.Fault.t) result

val arb_write : t -> int -> int -> (unit, R2c_machine.Fault.t) result

(** [disasm t addr] — JIT-ROP's code read: permission-checked read of the
    text byte at [addr], then decode. Under execute-only text this faults
    like {!arb_read}. *)
val disasm :
  t -> int -> ((R2c_machine.Insn.t * int) option, R2c_machine.Fault.t) result

(** [send t payload] — queue bytes for the server's next [read_input]. *)
val send : t -> string -> unit

(** [resume_to_end t] — let the victim run to completion. *)
val resume_to_end : t -> R2c_machine.Process.outcome

(** [restart t] — respawn a crashed worker (same layout unless [relink]). *)
val restart : t -> unit

(** Scoring accessors (harness side). *)

val sensitive_log : t -> (int * int) list

(** [compromised t] — the privileged sink ran with the attacker's marker
    as its argument ({!R2c_workloads.Vulnapp.marker}). *)
val compromised : t -> bool

(** Crashes and detections since {!attach}, over every process a relink
    replaced as well as the current one. *)

val detected : t -> bool
val crashes : t -> int
val detections : t -> int

(** [victim t] — [t] behind the network: a probe respawns the worker if
    it ended, runs it to the serving point, sends the payload and runs it
    to the end: an exit is [Served], a crash or timeout [Died], no serving
    point [Refused]. Once {!detected} holds, every probe is [Refused]. *)
val victim : t -> Victim.t
