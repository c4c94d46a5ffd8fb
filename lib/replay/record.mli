(** Workload recorder: captures every builtin-boundary crossing of a run
    into a {!Trace.t}.

    The recorder installs one hook, the builtin tap
    ({!R2c_machine.Cpu.set_builtin_tap}), which fires once per intercepted
    builtin call — after the call's effect, so argument registers, result
    register and delivered [read_input] bytes are all observable — and is
    the source of {!Trace.span}s. The tap leaves the tier choice alone, so
    recording runs at tier-3 speed; any observer already attached (a
    profiler, a trace ring) is left in place and keeps firing. *)

(** [capture ?fuel ?prepare ~meta ~program ~inputs ()] — compile
    [program] under [meta]'s coordinates, queue [inputs] for
    [read_input], run to completion with the tap installed, and
    return the raw (unreduced) trace: one [Span] per builtin call and an
    {!Trace.expect} snapshot of the finished run's counters. [prepare]
    runs after load and before the tap is installed (attach a profiler
    there to exercise observer coexistence). Errors on fuel exhaustion or
    a fault — a run that did not halt cleanly is not a benchmark. *)
val capture :
  ?fuel:int ->
  ?prepare:(R2c_machine.Cpu.t -> unit) ->
  meta:Trace.meta ->
  program:Ir.program ->
  inputs:string list ->
  unit ->
  (Trace.t, string) result
