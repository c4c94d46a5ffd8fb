(** Imperative construction of IR functions and programs.

    A function builder keeps a current block; emitters append to it and
    return the destination as an operand, so straight-line code reads
    naturally:

    {[
      let fb = Builder.func "square" ~nparams:1 in
      let x = Builder.param 0 in
      let r = Builder.binop fb Mul x x in
      Builder.ret fb (Some r);
      let f = Builder.finish fb
    ]} *)

type t

(** [func name ~nparams] — fresh builder positioned in the entry block. *)
val func : string -> nparams:int -> t

(** [param i] — operand for the [i]-th parameter. *)
val param : int -> Ir.operand

(** [slot t size] — declare a local stack slot, returning its index. *)
val slot : t -> int -> int

(** [new_block t] — allocate a label without switching to it. *)
val new_block : t -> Ir.label

(** [switch_to t lbl] — subsequent emissions go to block [lbl]. The current
    block must already be terminated or empty-switched. *)
val switch_to : t -> Ir.label -> unit

val mov : t -> Ir.operand -> Ir.operand
val binop : t -> Ir.binop -> Ir.operand -> Ir.operand -> Ir.operand
val cmp : t -> Ir.cmp -> Ir.operand -> Ir.operand -> Ir.operand
val load : t -> Ir.operand -> int -> Ir.operand
val load8 : t -> Ir.operand -> int -> Ir.operand
val store : t -> Ir.operand -> int -> Ir.operand -> unit
val store8 : t -> Ir.operand -> int -> Ir.operand -> unit
val slot_addr : t -> int -> Ir.operand

(** [call t callee args] — call with a result. *)
val call : t -> Ir.callee -> Ir.operand list -> Ir.operand

(** [call_void t callee args] — call ignoring the result. *)
val call_void : t -> Ir.callee -> Ir.operand list -> unit

val ret : t -> Ir.operand option -> unit
val br : t -> Ir.label -> unit
val cond_br : t -> Ir.operand -> Ir.label -> Ir.label -> unit

(** [for_ t ~from ~below body] — a counted loop; [body] receives the
    counter operand. The counter lives in a stack slot, so arbitrarily
    complex bodies (including calls) are safe. *)
val for_ : t -> from:Ir.operand -> below:Ir.operand -> (Ir.operand -> unit) -> unit

(** [if_ t c then_ else_] — two-armed conditional statement. *)
val if_ : t -> Ir.operand -> (unit -> unit) -> (unit -> unit) -> unit

(** [finish t] — assemble the function; every reached block must be
    terminated. *)
val finish : t -> Ir.func

(** Program assembly. *)

val global : string -> size:int -> Ir.init_item list -> Ir.global

(** [program ~main funcs globals] *)
val program : main:string -> Ir.func list -> Ir.global list -> Ir.program
