(** The vulnerable server used by the security evaluation (Section 7.2).

    Mirrors the AOCR target scenario:

    - a request loop whose handler copies attacker input into a fixed
      64-byte stack buffer via an unbounded [read_input] — a real stack
      smash, the "memory corruption vulnerability that enables control-flow
      hijacking" of the threat model (Section 3);
    - a function-pointer local and a heap session pointer in the same
      frame (profiling targets, AOCR step A);
    - a heap session object holding a pointer into the data section (the
      stepping stone of AOCR step B);
    - a privileged function [exec_cmd] whose argument comes from the
      global [g_default_cmd] — the corruptible default parameter of AOCR
      step C — reachable through [handler_exec], present in the service
      table but never dispatched legitimately;
    - the [sensitive] builtin as the execve analogue: the attack succeeds
      when it is called at all (whole-function reuse) or with the marker
      argument {!marker} (argument-controlled reuse).

    [runtime_stubs] models the libc gadget population: raw-code helpers
    whose suffixes are classic gadgets (pop rdi; ret etc.). They are linked
    — and under R2C shuffled — like all other code. *)

(** The attacker's marker argument: a successful argument-controlled attack
    makes the program call [sensitive] with this rdi. *)
val marker : int

(** The server program. *)
val program : unit -> Ir.program

(** Libc-like raw functions containing the classic gadget population. *)
val runtime_stubs : R2c_compiler.Opts.raw_func list

(** [build ?seed cfg] — compile the server (with [runtime_stubs]) under a
    diversity configuration. *)
val build : ?seed:int -> R2c_core.Dconfig.t -> R2c_machine.Image.t

(** Symbol of the breakpoint the attacker's Malicious-Thread-Blocking
    oracle uses: the return address of the [read_input] call inside
    [process_request]. *)
val break_symbol : string
