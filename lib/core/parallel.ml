(* Fixed-size OCaml 5 Domain worker pool, on the stdlib alone.

   The soak campaign fans its (run x shard) jobs out across domains: every
   job is a pure function of its inputs (the simulator allocates all its
   state per call), so parallel evaluation is deterministic and the one
   batch engine, [fold_ordered], merges results in submission order,
   exactly as the serial path would.  [run_all] is that fold with a list
   merge.

   Design notes:
   - Work is submitted as a *batch*; the submitting domain participates in
     draining its own batch, so a batch can never deadlock waiting for busy
     workers, and nested batches submitted from worker domains simply
     degrade to serial execution (checked via a domain-local flag).
   - Exceptions inside jobs are caught per-job; the first one is re-raised
     in the submitter after the whole batch has drained, so the pool is
     never left with orphaned jobs.
   - The pool is sized once (SEL4RT_DOMAINS overrides the default of
     [recommended_domain_count - 1], capped at 8) and shared process-wide
     via [default]; [set_serial true] forces every batch onto the calling
     domain, which determinism tests use as the serial reference. *)

type batch = {
  count : int;
  run : int -> unit;  (* run job [i]; must not raise *)
  next : int Atomic.t;  (* next job index to claim *)
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* workers: a batch was submitted / shutdown *)
  finished : Condition.t;  (* submitters: some job finished *)
  mutable batches : batch list;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  size : int;  (* worker domains; the submitter adds one more *)
}

let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Pool activity for the metrics registry (sel4rt metrics, perfbench). *)
let m_batches = Obs.Metrics.counter "parallel.batches"
let m_jobs = Obs.Metrics.counter "parallel.jobs"
let m_domains = Obs.Metrics.gauge "parallel.domains"

let serial_override = Atomic.make false

let set_serial b = Atomic.set serial_override b

(* Claim and run the next job of [b]; false once every job is claimed.
   Called both by workers and by the submitting domain. *)
let run_next b =
  let i = Atomic.fetch_and_add b.next 1 in
  i < b.count
  && begin
       b.run i;
       true
     end

let worker pool () =
  Domain.DLS.set in_worker true;
  let rec next_batch () =
    Mutex.lock pool.lock;
    let rec wait () =
      if pool.stop then begin
        Mutex.unlock pool.lock;
        None
      end
      else begin
        (* Drop exhausted batches; their submitters hold their results. *)
        pool.batches <-
          List.filter (fun b -> Atomic.get b.next < b.count) pool.batches;
        match pool.batches with
        | b :: _ ->
            Mutex.unlock pool.lock;
            Some b
        | [] ->
            Condition.wait pool.work pool.lock;
            wait ()
      end
    in
    match wait () with
    | None -> ()
    | Some b ->
        while run_next b do
          ()
        done;
        next_batch ()
  in
  next_batch ()

let create ?domains () =
  let size =
    match domains with
    | Some n -> max 0 (n - 1)  (* the submitter is one of the [n] *)
    | None -> (
        match Sys.getenv_opt "SEL4RT_DOMAINS" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some n when n >= 1 -> n - 1
            | _ -> invalid_arg "SEL4RT_DOMAINS must be a positive integer")
        | None -> max 0 (min 8 (Domain.recommended_domain_count ()) - 1))
  in
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batches = [];
      stop = false;
      workers = [];
      size;
    }
  in
  pool.workers <- List.init size (fun _ -> Domain.spawn (worker pool));
  Obs.Metrics.set_gauge m_domains (float_of_int (size + 1));
  pool

let size pool = pool.size + 1

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* The process-wide pool, created on first use.  Guarded by a mutex rather
   than [lazy] because [Lazy.force] is not safe under domain races. *)
let default_lock = Mutex.create ()
let default_pool = ref None

let default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  pool

(* --- streaming ordered fold --- *)

type 'a fold_slot =
  | Fold_pending
  | Fold_done of 'a
  | Fold_consumed  (* merged into the accumulator, or the job raised *)

(* Fold thunk results into [init] in submission order, merging each result
   on the submitting domain as soon as the ordered prefix is complete.
   Equivalent to the serial [List.fold_left merge init] over the results,
   but retains at most the out-of-order window of results (bounded by the
   domain count) instead of the whole batch — this is what keeps soak
   campaigns at constant memory in the job count.  Merge order never
   depends on completion order, so the fold is deterministic under any
   parallelism.  The submitter alternates between merging ready results
   and helping run unclaimed jobs. *)
let fold_ordered pool ~init ~merge thunks =
  let arr = Array.of_list thunks in
  let n = Array.length arr in
  if
    n <= 1 || pool.size = 0
    || Atomic.get serial_override
    || Domain.DLS.get in_worker
  then Array.fold_left (fun acc th -> merge acc (th ())) init arr
  else begin
    let slots = Array.init n (fun _ -> Atomic.make Fold_pending) in
    let error = Atomic.make None in
    let run i =
      (match arr.(i) () with
      | r -> Atomic.set slots.(i) (Fold_done r)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set error None (Some (e, bt)));
          Atomic.set slots.(i) Fold_consumed);
      (* Wake the submitter after every job, not only the batch's last:
         it may be blocked on exactly this slot. *)
      Mutex.lock pool.lock;
      Condition.broadcast pool.finished;
      Mutex.unlock pool.lock
    in
    Obs.Metrics.incr m_batches;
    Obs.Metrics.incr ~by:n m_jobs;
    let b = { count = n; run; next = Atomic.make 0 } in
    Mutex.lock pool.lock;
    pool.batches <- pool.batches @ [ b ];
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    let acc = ref init in
    let merged = ref 0 in
    let drain_ready () =
      let continue = ref true in
      while !continue && !merged < n do
        match Atomic.get slots.(!merged) with
        | Fold_done r ->
            Atomic.set slots.(!merged) Fold_consumed;  (* release for GC *)
            acc := merge !acc r;
            incr merged
        | Fold_consumed -> incr merged  (* job raised: nothing to merge *)
        | Fold_pending -> continue := false
      done
    in
    while !merged < n do
      drain_ready ();
      if !merged < n && not (run_next b) then begin
        (* Every job is claimed; sleep until the next-to-merge slot is
           filled.  The slot check and the workers' broadcast both run
           under the pool lock, so the wakeup cannot be lost. *)
        Mutex.lock pool.lock;
        (match Atomic.get slots.(!merged) with
        | Fold_pending -> Condition.wait pool.finished pool.lock
        | Fold_done _ | Fold_consumed -> ());
        Mutex.unlock pool.lock
      end
    done;
    (match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    !acc
  end

let run_all pool thunks =
  List.rev (fold_ordered pool ~init:[] ~merge:(fun acc r -> r :: acc) thunks)
