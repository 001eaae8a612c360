(** The scheduler: 256 fixed priorities with per-priority FIFO run queues,
    in the three variants the paper compares — lazy scheduling (Figure 2),
    Benno scheduling (Figure 3), and Benno with the two-level CLZ priority
    bitmap (Section 3.2).  Higher priority number = more urgent. *)

open Ktypes

val num_priorities : int

type t

val create : Build.t -> idle:tcb -> t

val queue : t -> prio -> tcb_queue

val enqueue : Ctx.t -> t -> tcb -> unit
(** Append at the tail of the thread's priority queue. *)

val dequeue : Ctx.t -> t -> tcb -> unit

val on_block : Ctx.t -> t -> tcb -> unit
(** The thread stopped being runnable: Benno builds dequeue it now; lazy
    scheduling deliberately leaves it parked. *)

val make_runnable : Ctx.t -> t -> tcb -> unit
(** Enqueue unless already queued. *)

val choose_thread : Ctx.t -> t -> tcb
(** The scheduling decision, per variant: lazy scan with stale dequeues,
    Benno scan, or the two-load/two-CLZ bitmap lookup. *)

val next_nonempty : t -> prio -> prio
(** The highest priority at or below the given one whose run queue is
    non-empty, or -1: found from the priority bitmap, which the host keeps
    in every build.  Charges nothing. *)

val bitmap_bit_set : t -> prio -> bool
(** The priority's bit is set in its bucket word, and the bucket's bit in
    the top-level word. *)
