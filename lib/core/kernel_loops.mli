(** The kernel's loops in the TAC mini-language, with their bounds
    computed mechanically (Section 5.3): the abstract interpreter's
    interval analysis where it can bound the induction variable, slicing +
    bounded model checking otherwise, and the manual annotation as the
    last resort. *)

module L := Tac.Lang

type loop_spec = {
  name : string;
  program : L.program;
  header : string;
  annotated : int;
      (** the bound the kernel source asserts; used only when no method
          bounds the loop.  Four times it caps the model check. *)
}

val clear_loop : max_bytes:int -> chunk:int -> loop_spec
(** Object clearing: for (off = 0; off < size; off += chunk). *)

val decode_loop : loop_spec
(** Capability decode: bits consumed per level are an input parameter in
    [1, 8]; the interval analysis bounds it with the interval-valued step. *)

val priority_scan_loop : loop_spec
(** The Figure 3 scheduler scan over 256 priorities. *)

val asid_search_loop : pool_size:int -> loop_spec
(** The ASID free-slot search of Section 3.6 (occupancy in memory). *)

val badge_scan_loop : max_waiters:int -> loop_spec
(** The Section 3.4 badged-abort scan over an in-memory linked list: the
    trip count is carried through loads, so only the slice + model-check
    pipeline can bound it. *)

type method_used = Abstract_interpretation | Model_checking | Annotation_only

type result = {
  spec : loop_spec;
  computed : int option;  (** header visits per loop entry *)
  method_used : method_used;  (** the method that produced [computed] *)
  slice_stats : Tac.Slice.stats option;
}

val compute_bound : loop_spec -> result
(** {!Tac.Absint.trip_bound} first; where it abstains, slice the loop and
    model-check the slice: run it ({!Tac.Ssa.run}) on every input
    valuation and take the most header visits.  Where a run diverges or
    the count exceeds [4 * annotated], [computed = None] and
    [Annotation_only]. *)

val bound_of : result -> int
(** The [computed] bound, or the annotation when the chain gives none:
    the number the IPET uses. *)

val bound : loop_spec -> int
(** [bound_of (compute_bound spec)]. *)

val decode : result
(** [compute_bound decode_loop], computed once when the module is
    initialised. *)

val priority_scan : result
(** [compute_bound priority_scan_loop], computed once when the module is
    initialised. *)

val catalogue : max_frame_bytes:int -> chunk:int -> result list
(** All five loops, for reports and tests ([asid_search] at a pool of 16,
    [badge_scan] at 12 waiters); the decode and priority-scan entries are
    {!decode} and {!priority_scan}. *)

val pp_method : method_used Fmt.t
val pp_result : result Fmt.t
