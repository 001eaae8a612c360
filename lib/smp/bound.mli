(** Per-core interrupt-response bound: the single-core WCET bound plus a
    remote-core interference term.

    On core [c] a pending interrupt's response window can additionally be
    stretched, relative to the single-core analysis, by

    - one outbound IPI burst the core itself initiates between entries (a
      TLB-shootdown broadcast is the worst: one send per remote core),
    - one inbound IPI taken at the window's start — the receive vector
      plus the shootdown handler body, charged only on cores the topology
      routes IPIs to (the shielded core's term is zero, which is the
      measurable benefit of shielding), and
    - cache-line contention on cross-core-shared kernel state.  The
      static interference matrix ({!Race.matrix}) tells us exactly which
      section pairs conflict on state a remote core can touch
      (scheduler queues, the current-thread pointer, IRQ words); each
      such pair charges one remote line transfer.

    Any further IPI or device delivery landing inside the window is a
    queued delivery, and the soak's window check already extends the
    allowance by one interrupt-path WCET per queued delivery — the same
    rule the single-core campaign uses. *)

type t = {
  b_core : int;
  b_base : int;  (** the single-core interrupt-response bound *)
  b_send : int;  (** one worst-case outbound burst: [(cores-1) * send] *)
  b_recv : int;  (** one inbound receive + shootdown body, if targeted *)
  b_contention : int;
      (** interfering section pairs on cross-core-shared classes, one
          remote line transfer each *)
  b_total : int;
}

val interfering_pairs : unit -> Race.pair list
(** Pairs of the interference matrix that conflict on a shared class. *)

val per_core : Topology.t -> base:int -> core:int -> t
(** All remote terms are zero at [cores = 1] — the bound degenerates to
    the single-core one, byte-for-byte. *)

val to_json : t -> Obs.Json.t
val pp : t Fmt.t
