(** Direct-mapped instruction-cache model.

    R2C's dominant costs are front-end effects: the push-based BTRA setup
    "exerts significant pressure on the instruction cache" (Section 5.1.2)
    and prolog traps likewise (Section 7.1). A small direct-mapped cache of
    line tags reproduces that pressure honestly: bigger call sites and
    trap-padded prologues touch more lines and evict more. *)

(** Read-only outside this module: tier 3's observed templates read
    [miss_count] directly, a field load where a {!misses} call would cost
    a cross-module call per instruction. *)
type t = private {
  tags : int array;  (** -1 = invalid *)
  lines : int;
  line_shift : int;
  mutable miss_count : int;
  mutable access_count : int;
}

(** [create ~lines ~line_bytes] — [lines] must be a power of two. *)
val create : lines:int -> line_bytes:int -> t

(** [access t ~addr ~len] touches the lines covering [\[addr, addr+len)] and
    returns how many missed. *)
val access : t -> addr:int -> len:int -> int

(** [access_line t line] — {!access} specialised to a fetch known to sit
    inside the single line [line] (index, not address). The tier-3
    compiler precomputes the index per instruction; the counter updates
    are bit-identical to the single-line case of {!access}. *)
val access_line : t -> int -> int

(** [copy t] — an independent cache in the same state: lines and
    counters. *)
val copy : t -> t

(** Cumulative miss/access counters. *)
val misses : t -> int

val accesses : t -> int
