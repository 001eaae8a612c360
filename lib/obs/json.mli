(** The one JSON value every report in this repository is built as.

    Reporters return a [t]; one printer traversal renders it in one of
    two layouts, so escaping and separators exist in exactly one place:

    - {!to_compact}, no insignificant whitespace — the serve wire, where
      one response is one line;
    - {!to_string}, one line with [", "] and [": "] separators — files
      and stdout (forensics files, Chrome traces, the soak report pinned
      by [test/sim_smoke_report.golden.json]).

    The parser is strict (it reads outside input off the serve wire):
    RFC 8259 number grammar, finite numbers only, no raw control
    characters in strings, exactly four hex digits per [\u] escape.
    Object member order is preserved.  Numbers are [float]s, as in
    JavaScript; every integer this repository emits fits a double
    exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
      (** integral values print without a decimal point, others with up
          to 17 significant digits (round-trip) *)
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with exactly [d] decimals ([99.60]);
          a report figure whose width is part of its layout *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
val list : ('a -> t) -> 'a list -> t
val option : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

val parse : string -> (t, string) result
(** Parse one JSON document.  Trailing whitespace is allowed, trailing
    garbage is an error; errors carry a character offset.  A parsed
    document never contains [Fixed]. *)

val to_compact : t -> string
(** Single-line rendering with no insignificant whitespace — safe for a
    newline-delimited protocol. *)

val to_string : t -> string
(** Single-line rendering with [", "] between items and [": "] after
    keys.  Both renderings print a non-finite number as [null]. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes): a backslash
    before the quote and the backslash, [\n] for newline and [\u00XX]
    for every other control character. *)

(** Accessors; [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an object ([None] for missing fields and non-objects). *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option

val to_int_opt : t -> int option
(** [None] for a non-integral number or one outside ±2{^53}, where the
    conversion to [int] would not be exact. *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
