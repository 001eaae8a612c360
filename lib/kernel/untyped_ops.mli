(** Untyped memory retype: object creation with preemptible clearing
    (Section 3.5).  All object memory is cleared before any other kernel
    state changes, one chunk per preemption point, with progress stored in
    the objects; the remaining bookkeeping is a short atomic pass.  A
    preempted retype is restartable and resumes from the watermarks. *)

open Ktypes

type error =
  | Not_enough_memory
  | Dest_slot_occupied
  | Invalid_count
  | Not_untyped
  | Untyped_has_children

type outcome = Done of cap list | Preempted | Error of error

val retype :
  Ctx.t ->
  fresh_id:(unit -> int) ->
  register:(any_object -> unit) ->
  ut_slot:slot ->
  obj_type ->
  count:int ->
  dest_slots:slot list ->
  outcome
(** Create [count] objects of the given type out of the untyped in
    [ut_slot], installing their capabilities in [dest_slots] as CDT
    children of the untyped.  New page directories receive the global
    kernel mappings (unpreemptible 1 KiB copy). *)

val pp_error : error Fmt.t
