(** Emitted (pre-link) functions: machine instructions plus local symbol
    definitions (block labels and return-address symbols) as byte offsets
    from the function entry. *)

(** Unwind metadata, the .eh_frame analogue of Section 7.2.4: enough to
    walk a stack through BTRA pre/post offsets and stack-argument pushes. *)
type frame_meta = {
  frame_size : int;
  post_words : int;  (** callee-side BTRA skip *)
  ra_sites : (string * int) list;
      (** per call site: return-address symbol and the number of words
          between the RA slot and the caller's frame base (pre-BTRAs plus
          pushed stack arguments and padding) *)
  check_sites : string list;
      (** return-address symbols of call sites carrying a Section 7.3
          post-return booby-trap check *)
}

type emitted = {
  ename : string;
  insns : R2c_machine.Insn.t array;
  esizes : int array;
      (** layout-assigned byte length per instruction, fixed at emission
          by the machine description's encoder hook — the linker places
          and the CPU advances by these, never by re-measuring *)
  local_syms : (string * int) list;  (** symbol -> byte offset *)
  ebooby_trap : bool;
  eframe : frame_meta option;  (** None for raw functions *)
}

(** [sizes_of ?size insns] — per-instruction lengths under an encoder
    hook (default {!R2c_machine.Insn.size}). *)
val sizes_of : ?size:(R2c_machine.Insn.t -> int) -> R2c_machine.Insn.t array -> int array

(** [of_raw ?size r] — wrap a raw machine-code function, measuring with
    the given encoder hook. *)
val of_raw : ?size:(R2c_machine.Insn.t -> int) -> Opts.raw_func -> emitted
