(** Fixed-size Domain worker pool with one batch engine, {!fold_ordered},
    which the soak campaign streams its shards through.

    Jobs must be pure functions of their inputs (every simulator run in
    this repository allocates its state per call), which makes parallel
    evaluation deterministic: results merge in submission order,
    identical to the serial path.

    The submitting domain participates in draining its own batch, so a
    batch cannot deadlock behind busy workers; nested calls from worker
    domains run serially.  Exceptions raised by jobs are re-raised in the
    submitter once the batch has drained. *)

type t

val create : ?domains:int -> unit -> t
(** A pool that runs jobs on [domains] domains in total (the submitter
    counts as one; [domains - 1] workers are spawned).  Default: the
    [SEL4RT_DOMAINS] environment variable, else
    [min 8 (Domain.recommended_domain_count ())]. *)

val default : unit -> t
(** The shared process-wide pool, created on first use. *)

val size : t -> int
(** Number of domains that can run jobs concurrently (workers + submitter). *)

val fold_ordered :
  t -> init:'b -> merge:('b -> 'a -> 'b) -> (unit -> 'a) list -> 'b
(** Run a batch of thunks and fold their results in submission order,
    merging each result on the submitting domain as soon as the ordered
    prefix is complete.  Semantically [List.fold_left merge init] over
    the results of the thunks run serially, but streaming: at most the out-of-order
    window of results (bounded by the domain count) is retained, so memory
    stays constant in the batch size.  Merge order never depends on
    completion order.  Exceptions raised by jobs are re-raised after the
    batch drains; an errored job contributes nothing to the fold. *)

val run_all : t -> (unit -> 'a) list -> 'a list
(** Run a batch of thunks, returning results in submission order:
    {!fold_ordered} with a list merge. *)

val set_serial : bool -> unit
(** Force every subsequent batch onto the calling domain (the serial
    reference of determinism tests). *)

val shutdown : t -> unit
(** Stop and join the pool's workers.  Do not call on {!default}'s pool
    while other domains may still submit. *)
