(** Control-flow graphs of basic blocks with a per-block payload.

    Call sites are blocks whose [call] field names the callee; their unique
    successor is the return point.  {!Inline} eliminates calls by virtual
    inlining before WCET analysis, as in Section 5.2 of the paper. *)

type 'a block = {
  id : int;
  label : string;
  payload : 'a;
  succs : int list;
  call : string option;
}

type 'a fn = { name : string; entry : int; blocks : 'a block array }

type 'a program = { funcs : 'a fn list; main : string }

exception Malformed of string

val block : 'a fn -> int -> 'a block
val num_blocks : 'a fn -> int
val succs : 'a fn -> int -> int list

val exits : 'a fn -> int list
(** Blocks with no successors. *)

val preds : 'a fn -> int list array

val reverse_postorder : 'a fn -> int list
(** Reverse postorder from the entry; unreachable blocks omitted. *)

val reachable : 'a fn -> bool array

val validate : 'a fn -> unit
(** @raise Malformed on inconsistent structure. *)

val validate_program : 'a program -> unit
val find_fn : 'a program -> string -> 'a fn

module Builder : sig
  type 'a t

  val create : string -> 'a t

  val add : ?call:string -> 'a t -> label:string -> 'a -> int
  (** Add a block; returns its id (ids are dense, in creation order). *)

  val edge : 'a t -> int -> int -> unit
  val set_entry : 'a t -> int -> unit

  val finish : 'a t -> 'a fn
  (** @raise Malformed if the graph is structurally invalid. *)
end
