(** Exact rational arithmetic over native integers with overflow detection.

    Sufficient for the small IPET problems of the WCET analysis; any
    overflow raises {!Overflow} rather than producing a wrong answer.
    [min_int] counts as overflow: no value has it as numerator or
    denominator. *)

exception Overflow

type t

val make : int -> int -> t
(** [make num den] in lowest terms.  @raise Invalid_argument on [den = 0];
    @raise Overflow if either is [min_int]. *)

val zero : t
val one : t
val minus_one : t
val of_int : int -> t
(** @raise Overflow on [min_int]. *)

val num : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
val inv : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool
val ge : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val floor : t -> int
val ceil : t -> int
val to_float : t -> float

val to_int_exn : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val pp : t Fmt.t
