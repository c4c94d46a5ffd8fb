val used : int -> int
val unused : int
(** Rule (a): no other unit uses it. *)

val tested : int
(** Rule (d): only a test unit uses it. *)

val hooked : int
(** Only a test unit uses it, and [hooks] declares it. *)

module Inner : sig
  val deep : int
end

type shown = { x : int }

type hidden = { h : int }
(** Rule (b): other units only pass it around. *)

val make_hidden : unit -> hidden

type counter = { mutable n : int }
(** Rule (c): mutable, and other units only read it. *)

val counter : counter

type cell = { mutable v : int }
type frozen = private { mutable f : int }

val frozen : frozen
