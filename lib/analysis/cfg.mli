(** Static control-flow-graph recovery from a linked image.

    A disassembler-driven walk over the decoded instruction stream
    ({!R2c_machine.Image.code_at}, built from the placed bodies, is the
    ground-truth decoder): every
    function body is split into basic blocks at branch targets and after
    terminators, with intra-function edges, direct cross-function
    transfers, and a call graph. This is the substrate for the invariant
    linter's reachability rules. *)

type block = {
  b_entry : int;
  b_insns : (int * R2c_machine.Insn.t * int) list;  (** addr, insn, byte length *)
  b_succs : int list;  (** intra-function direct successors *)
  b_calls : int list;
      (** direct cross-function transfer targets: calls and tail jumps *)
  b_indirect : int;  (** indirect calls/jumps inside the block *)
}

type func = {
  fc_name : string;
  fc_entry : int;
  fc_len : int;
  fc_booby_trap : bool;
  fc_blocks : block list;  (** ascending address order *)
}

type t = {
  funcs : func list;  (** [_start] plus every placed function *)
  call_graph : (string, string list) Hashtbl.t;
      (** caller -> sorted direct callees (functions and builtins) *)
}

val recover : R2c_machine.Image.t -> t

type stats = {
  n_funcs : int;
  n_blocks : int;
  n_edges : int;  (** intra-function edges *)
  n_call_edges : int;  (** direct cross-function transfers *)
  n_indirect : int;
}

val stats : t -> stats
