(** SMP topology: core count, IRQ affinity routing and tenant placement.

    The model is static-affinity SMP in the style of verified-kernel
    multicore designs: threads never migrate (affinity is fixed at
    creation, enforced by {!Sel4.Invariants.check_affinity}), each core
    runs its own scheduler over its own run queues, and device interrupt
    lines are routed to exactly one core by a configurable affinity
    policy.  Cross-core interaction happens only through IPIs
    ({!Fabric}). *)

(** IRQ affinity policy. *)
type policy =
  | Spread
      (** line [l] is delivered to core [l mod cores]; tenants round-robin
          over all cores.  Every core both runs workload and takes
          interrupts. *)
  | Shielded
      (** core 0 is the interrupt core: {e every} device line is routed to
          it and it runs no tenant workload; tenants round-robin over
          cores [1..cores-1].  Core 0 receives no IPIs either — that is
          the shielding discipline this scenario exists to measure. *)

type t = private { cores : int; policy : policy }

val make : cores:int -> policy:policy -> t
(** @raise Invalid_argument when [cores < 1]. *)

val policy_name : policy -> string

val tenant_cores : t -> int list
(** The cores that run tenant workload threads.  Under [Shielded] with
    more than one core this excludes core 0; with a single core it is
    [[0]] (the policies coincide — there is nowhere else to run). *)

val route_line : t -> line:int -> int
(** The core a device line's interrupts are delivered to. *)

val place_tenants : t -> total:int -> int array
(** Per-core tenant-thread counts for a scenario with [total] tenants
    (round-robin over {!tenant_cores}). *)

val receives_ipis : t -> core:int -> bool
(** Does [core] ever receive IPIs under this topology?  Resched nudges
    and TLB shootdowns only target tenant cores, so the shielded core
    never does — which is exactly why its response bound drops. *)

val sends_shootdowns : t -> core:int -> bool
(** May [core] originate TLB-shootdown broadcasts?  Only tenant cores
    mutate address spaces, and a broadcast needs someone else to hit. *)
