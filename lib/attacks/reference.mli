(** The attacker's reference copy of the target binary.

    Code-reuse attacks rest on the software monoculture: the attacker runs
    and dissects their own copy (full ground-truth access is legitimate
    there) and transfers offsets, gadget addresses and layout knowledge to
    the victim. Against an undiversified target the reference is exact;
    against a diversified target (different seed) every transferred datum
    is potentially stale — measuring exactly *which* knowledge survives
    each defense is the security evaluation. *)

type t = {
  img : R2c_machine.Image.t;
  ra_off : int;  (** bytes from breakpoint rsp to process_request's RA *)
  buf_off : int;  (** bytes from rsp to the overflow buffer *)
  fp_off : int;  (** bytes from rsp to the function-pointer local *)
  session_off : int;  (** bytes from rsp to the heap session pointer *)
  frame_ra_value : int;  (** the RA value observed (return into main) *)
  pop_rdi : int option;  (** classic gadget address, if present *)
  sensitive_plt : int;
  text_base : int;
  data_base : int;
  motd_addr : int;
  default_cmd_delta : int;  (** g_default_cmd relative to g_motd *)
  service_table_delta : int;  (** g_service_table relative to g_motd *)
  exec_entry : int;  (** value of the handler_exec service-table slot *)
  exec_low16 : int;
}

(** [measure img] — run the attacker's copy of the vulnerable server to the
    breakpoint and extract the transferable knowledge. Raises
    [Failure] when the binary does not look like the vulnerable server. *)
val measure : R2c_machine.Image.t -> t
