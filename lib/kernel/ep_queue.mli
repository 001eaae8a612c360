(** Intrusive doubly-linked wait queues over the TCB's [ep_next]/[ep_prev]
    links, shared by endpoints and notifications (a thread waits on at
    most one object).  Enqueue and dequeue are O(1) (Section 3.4 relies
    on this); only whole-queue operations iterate, and those carry
    preemption points.

    The endpoint operations add what is specific to endpoints: the
    [Ep_enqueue]/[Ep_dequeue] trace events, keeping any in-flight
    badged-abort cursor valid (part of what makes the Section 3.4 resume
    state safe against concurrent queue surgery), and the [Ep_idle] reset
    when the queue empties. *)

open Ktypes

(** {1 Any wait queue}

    [owner] is the address of the object whose queue it is: every
    operation charges one store to it. *)

val push : Ctx.t -> tcb_queue -> owner:int -> tcb -> unit
val remove : Ctx.t -> tcb_queue -> owner:int -> tcb -> unit
val take : Ctx.t -> tcb_queue -> owner:int -> tcb option

(** {1 Endpoints} *)

val enqueue : Ctx.t -> endpoint -> tcb -> unit
val dequeue : Ctx.t -> endpoint -> tcb -> unit
val pop : Ctx.t -> endpoint -> tcb option
val to_list : endpoint -> tcb list
val length : endpoint -> int
