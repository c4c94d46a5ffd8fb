(** Machine faults.

    Faults are the reactive half of R2C: a dereferenced booby-trapped data
    pointer raises {!constructor-Guard_page}, a control transfer into a booby trap
    function raises {!constructor-Booby_trap}; both "give defenders a way to respond
    to an ongoing attack" (Section 4.2). The Process layer turns them into
    detection events. *)

type access = Read | Write | Exec

type t =
  | Segv of { addr : int; access : access }
      (** Unmapped address or permission violation on a normal page. *)
  | Guard_page of { addr : int; access : access }
      (** Access to a BTDP guard page — an attack tripwire. *)
  | Booby_trap of { addr : int }
      (** Executed a trap instruction planted by the defense. *)
  | Misaligned_stack of { rip : int; rsp : int }
      (** Call with a stack pointer violating 16-byte alignment
          (Section 5.1: "programs crash when certain instructions access a
          misaligned stack"). *)
  | Invalid_opcode of { addr : int }
      (** Fetch from an address holding no instruction. *)
  | Division_by_zero of { rip : int }
  | Cfi_violation of { rip : int; expected : int; got : int }
      (** A shadow-stack mismatch on return (the enforcement-based
          comparison point of Section 8.2). *)
  | Injected of { rip : int; kind : string }
      (** A fault synthesized by the chaos injector ({!Inject}); behaves
          like an ordinary crash — monitoring cannot tell it from organic
          failure, which is the point of availability testing under
          chaos. *)

exception Fault of t

val to_string : t -> string

(** [is_detection f] — whether the fault is one a monitoring story counts
    as attack detection (booby traps, guard pages, CFI violations), as
    opposed to a plain crash. *)
val is_detection : t -> bool

val raise_fault : t -> 'a
