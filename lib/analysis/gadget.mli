(** Static gadget-surface scanner.

    Enumerates ret/indirect-jump/indirect-call-terminated instruction
    sequences from {e every} byte offset of the materialised text segment —
    the attacker's unaligned decode, not the compiler's instruction
    stream — and intersects gadget populations across diversified
    variants. The cross-variant survivor count is the static counterpart
    of Table 3's dynamic AOCR/JIT-ROP results: a gadget is only reusable
    across variants if both its text-relative offset and its bytes
    survive diversification. *)

type kind = K_ret | K_jmp_ind | K_call_ind

type gadget

(** [scan ?max_insns img] — all gadgets of at most [max_insns]
    instructions (default 5), ascending by offset. *)
val scan : ?max_insns:int -> R2c_machine.Image.t -> gadget list

(** [survivors variants] — the gadgets of the first variant present at the
    same offset with the same bytes in every other variant. *)
val survivors : gadget list list -> gadget list
