(** The IPI fabric: cross-core interrupts as a first-class IRQ class.

    Two kinds exist, mirroring what a real SMP seL4 port needs: [Resched]
    (a remote-core reschedule nudge — "the handler I just ran woke a
    thread pinned elsewhere") and [Tlb_shootdown] (a broadcast asking
    remote cores to invalidate translations after an address-space
    mutation).  Each kind owns a dedicated interrupt line near the top of
    the line space, well away from the device lines the scenarios use.

    The fabric models hardware IPI coalescing: while an IPI of some kind
    is outstanding (sent, not yet taken) toward a destination, further
    sends of that kind to the same destination merge into it — exactly
    the pending-bit semantics of an interrupt controller.  Every
    {e accepted} send is eventually delivered or cancelled (cancellation
    happens only when the destination core's run ends first); the
    {!check} function enforces this accounting as an invariant. *)

type kind = Resched | Tlb_shootdown

val line_of : kind -> int
val kind_of_line : int -> kind option
val kind_name : kind -> string

type t

val create : cores:int -> t

val send : t -> src:int -> dst:int -> kind -> bool
(** Record an IPI from [src] to [dst].  Returns [true] when the IPI was
    accepted (no IPI of this kind outstanding toward [dst] — the caller
    must now assert the kind's line on the destination) and [false] when
    it coalesced into an already-outstanding one.
    @raise Invalid_argument on [src = dst] or out-of-range cores. *)

val note_delivered : t -> dst:int -> kind -> unit
(** The destination kernel delivered the kind's line: the outstanding
    IPI (and everything that coalesced into it) is consumed. *)

val cancel_outstanding : t -> dst:int -> int
(** Destination core finished its run: cancel whatever is still
    outstanding toward it and return how many IPIs that was. *)

val sent : t -> int
(** Accepted sends (coalesced ones counted separately). *)

val coalesced : t -> int
val delivered : t -> int
val cancelled : t -> int
val in_flight : t -> int

val check : final:bool -> t -> (unit, string) result
(** The delivery invariant: [sent = delivered + cancelled + in_flight]
    globally and per destination, all counters non-negative, and — when
    [final] — nothing left in flight (every accepted IPI was delivered
    or cancelled). *)
