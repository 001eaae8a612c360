(** Natural-loop detection over dominators.

    The WCET analysis attaches iteration bounds to the loop headers found
    here, and the IPET formulation constrains header flow against the flow
    entering the loop from outside (Section 5.2 of the paper). *)

type loop = {
  header : int;
  body : int list;  (** includes the header *)
  back_edges : (int * int) list;
  depth : int;  (** 1 = outermost *)
}

type t

val compute : 'a Flowgraph.fn -> t
val loops : t -> loop list
val headers : t -> int list
val loop_of_header : t -> int -> loop option
val innermost_containing : t -> int -> loop option

val entry_edges : 'a Flowgraph.fn -> loop -> (int * int) list
(** Edges into the header from outside the loop body. *)

val is_reducible : 'a Flowgraph.fn -> t -> bool
(** True when every retreating edge is a natural back edge. *)
