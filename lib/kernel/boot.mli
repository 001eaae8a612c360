(** Minimal root-task bootstrap shared by tests, examples and benchmarks:
    a root untyped, a root CNode whose single level resolves a full 32-bit
    capability address (24 guard bits + 8 radix bits), and a root thread.
    Everything is created through the real retype path, so boot-time state
    satisfies the invariant catalogue. *)

open Ktypes

type env = {
  k : Kernel.t;
  root_cnode : cnode;
  root_tcb : tcb;
  ut_slot : slot;  (** large untyped for further allocations *)
}

exception Boot_failure of string

val cptr : int -> int
(** Capability address of root CNode slot [i]. *)

val boot : ?cpu:Hw.Cpu.t -> ?cpu_id:int -> ?root_priority:int -> Build.t -> env
(** [cpu_id] (default 0) is forwarded to {!Kernel.create}: every thread
    the booted system creates is pinned to that core. *)

val ut_cptr : int
val first_free_slot : int

val retype_syscall : env -> obj_type -> count:int -> dest:int -> int list
(** Retype via the real system-call path into root CNode slots starting at
    [dest]; returns the new capabilities' addresses.
    @raise Boot_failure on error. *)

val spawn_thread : env -> priority:int -> dest:int -> tcb
(** A new thread sharing the root cspace (initially inactive). *)

val make_runnable : env -> tcb -> unit
val spawn_endpoint : env -> dest:int -> endpoint
val spawn_notification : env -> dest:int -> notification
