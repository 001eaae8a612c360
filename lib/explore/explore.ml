(* The preemption-schedule campaign: every preemption point of the four
   long-running operations must restart safely (Sections 3.3-3.6).

   Each operation has a workload: a populated environment, a driver that
   issues (and restarts) the operation, and a progress measure.  A
   schedule places preemptions at chosen poll indices of its replay and
   runs a client {e action} — a signal, a notification poll, a
   re-queueing send, or nothing (a "pause") — in the window each
   preemption opens, before the operation restarts.  Schedules are
   indexed by poll, not by cycle: the poll sequence of an operation is a
   pure function of the work it has left, so a schedule means the same
   thing under lazy, Benno and Benno+bitmap scheduling, and the three
   final states can be compared byte for byte.  Per operation the
   campaign runs

   - the uninterrupted baselines under the three scheduler variants,
     which must agree on poll count H and final-state digest;
   - the sweep: a pause at each poll k in 1..H alone, then a pause at
     every poll, each of which must reach the baseline digest; and
   - DPOR over the operation's client-action alphabet (empty for
     retype_clear and vspace_delete).

   Exhaustive enumeration of (polls x actions) explodes, so DPOR prunes
   schedules with the static interference relation of [Race], in the
   style of dynamic partial-order reduction with persistent/sleep sets:

   - An action whose footprint commutes (no semantic conflict) with every
     section of the operation, with the IRQ-delivery path {e and} with
     every other action in the alphabet is {e globally independent}:
     sliding it to a different poll, or across another independent
     action, provably reaches the same final state.  Each equivalence
     class keeps one canonical representative — independent actions
     occupy the smallest free polls in name order — and all other members
     are pruned without running.
   - Actions that do conflict (with the operation or with each other) are
     {e decisions}: every placement and relative order is explored.

   Every schedule, whichever step produced it, is judged by one oracle:
   the invariant catalogue after each kernel exit, strict decrease of the
   progress measure between consecutive preemptions, and agreement of the
   final states across the three scheduler variants.  DPOR's final
   states are also deduplicated by canonical digest; that only counts.
   Failing schedules are shrunk to 1-minimal ones and replayed under the
   tracer for a timeline.

   Multi-pause schedules add nothing to the sweep: the state at a
   preempted exit depends only on the poll index (pinned by
   [test_explore]), so the sweep plus the preempt-everywhere schedule
   cover every pause-only interleaving.  The pruning-soundness test
   checks the DPOR construction empirically: naive full enumeration and
   DPOR exploration must reach exactly the same set of final-state
   digests, with a substantial fraction pruned.

   The same replay serves [Race]'s footprint audit ({!audit}): an
   observer on the driver's kernel entries logs the CPU tracer's loads
   and stores under the preempt-everywhere schedule. *)

open Sel4.Ktypes
module K = Sel4.Kernel
module B = Sel4.Boot

(* --- workload sizes --- *)

type sizes = {
  sz_waiters : int;  (* blocked senders queued for deletion *)
  sz_abort_waiters : int;  (* blocked badged senders *)
  sz_frame_bits : int;  (* retyped frame size (cleared in chunks) *)
  sz_ptes : int;  (* small pages mapped through the page table *)
  sz_sections : int;  (* 1 MiB sections mapped in the directory *)
}

let sizes =
  {
    sz_waiters = 12;
    sz_abort_waiters = 14;
    sz_frame_bits = 14;
    sz_ptes = 10;
    sz_sections = 2;
  }

(* --- scheduler variants under differential test --- *)

let variants ~(base : Sel4.Build.t) (op : Race.op) =
  let vspace =
    (* Preemptible address-space teardown exists only in the shadow
       design; the ASID design deletes in O(1) with nothing to inject
       into. *)
    match op with
    | Race.Vspace_delete -> Sel4.Build.Shadow_tables
    | _ -> base.Sel4.Build.vspace
  in
  List.map
    (fun sched ->
      { base with Sel4.Build.sched; vspace; preemption_points = true })
    [ Sel4.Build.Lazy; Sel4.Build.Benno; Sel4.Build.Benno_bitmap ]

(* --- operation drivers --- *)

type driver = {
  d_event : K.event;
  d_initiator : tcb;
  d_measure : unit -> int;
      (* Progress toward completion; must strictly decrease between
         consecutive preemptions and reach 0 on completion. *)
}

let expect_done what = function
  | K.Completed -> ()
  | K.Preempted -> raise (B.Boot_failure (what ^ ": preempted during setup"))
  | K.Failed e -> raise (B.Boot_failure (what ^ ": " ^ e))

(* Park [n] low-priority senders on the endpoint at [ep_cptr], sending
   through [cptr_of i] (a badged or plain endpoint cap). *)
let park_senders env ~n ~first_slot ~cptr_of =
  for i = 0 to n - 1 do
    let sender = B.spawn_thread env ~priority:50 ~dest:(first_slot + i) in
    B.make_runnable env sender;
    K.force_run env.B.k sender;
    expect_done "park sender"
      (K.kernel_entry env.B.k
         (K.Ev_send
            { ep = cptr_of i; msg_len = 1; extra_caps = []; blocking = true }))
  done;
  K.force_run env.B.k env.B.root_tcb

let setup_ep_delete env sz =
  let ep = B.spawn_endpoint env ~dest:10 in
  park_senders env ~n:sz.sz_waiters ~first_slot:20 ~cptr_of:(fun _ -> B.cptr 10);
  {
    d_event = K.Ev_invoke (K.Inv_delete { target = B.cptr 10 });
    d_initiator = env.B.root_tcb;
    d_measure =
      (fun () -> (if ep.ep_active then 1 else 0) + Sel4.Ep_queue.length ep);
  }

let setup_badged_abort env sz =
  let ep = B.spawn_endpoint env ~dest:10 in
  let mint dest badge =
    expect_done "mint badged cap"
      (K.run_to_completion env.B.k
         (K.Ev_invoke
            (K.Inv_copy
               {
                 src = B.cptr 10;
                 dest_slot = env.B.root_cnode.cn_slots.(dest);
                 badge = Some badge;
               })))
  in
  mint 11 7;
  mint 12 9;
  (* Alternate badges so the abort must scan past non-matching waiters. *)
  park_senders env ~n:sz.sz_abort_waiters ~first_slot:20 ~cptr_of:(fun i ->
      B.cptr (if i mod 2 = 0 then 11 else 12));
  {
    d_event = K.Ev_invoke (K.Inv_cancel_badged_sends { ep = B.cptr 10; badge = 7 });
    d_initiator = env.B.root_tcb;
    d_measure = (fun () -> Sel4.Digest.abort_scan_len ep);
  }

let setup_retype_clear env sz =
  let ut =
    match env.B.ut_slot.cap with
    | Untyped_cap ut -> ut
    | _ -> raise (B.Boot_failure "no boot untyped")
  in
  let dest_slots =
    [ env.B.root_cnode.cn_slots.(40); env.B.root_cnode.cn_slots.(41) ]
  in
  let uncleared () =
    match ut.ut_creating with
    | None -> 0
    | Some cr ->
        List.fold_left
          (fun acc (_, obj) ->
            acc + Sel4.Objects.size_of obj - Sel4.Objects.cleared_of obj)
          0 cr.cr_entries
  in
  {
    d_event =
      K.Ev_invoke
        (K.Inv_retype
           {
             ut = B.ut_cptr;
             obj_type = Frame_object sz.sz_frame_bits;
             count = 2;
             dest_slots;
           });
    d_initiator = env.B.root_tcb;
    d_measure = uncleared;
  }

let setup_vspace_delete env sz =
  let slot i = env.B.root_cnode.cn_slots.(i) in
  ignore (B.retype_syscall env Page_directory_object ~count:1 ~dest:30);
  ignore (B.retype_syscall env Page_table_object ~count:1 ~dest:31);
  ignore (B.retype_syscall env (Frame_object 12) ~count:sz.sz_ptes ~dest:32);
  ignore
    (B.retype_syscall env (Frame_object 20) ~count:sz.sz_sections
       ~dest:(32 + sz.sz_ptes));
  let pd =
    match (slot 30).cap with
    | Page_directory_cap { pd; _ } -> pd
    | _ -> raise (B.Boot_failure "no pd")
  in
  expect_done "map pt"
    (K.run_to_completion env.B.k
       (K.Ev_invoke
          (K.Inv_map_page_table { pt = B.cptr 31; pd = B.cptr 30; vaddr = 0 })));
  for i = 0 to sz.sz_ptes - 1 do
    expect_done "map frame"
      (K.run_to_completion env.B.k
         (K.Ev_invoke
            (K.Inv_map_frame
               { frame = B.cptr (32 + i); pd = B.cptr 30; vaddr = i * 4096 })))
  done;
  for i = 0 to sz.sz_sections - 1 do
    expect_done "map section"
      (K.run_to_completion env.B.k
         (K.Ev_invoke
            (K.Inv_map_frame
               {
                 frame = B.cptr (32 + sz.sz_ptes + i);
                 pd = B.cptr 30;
                 vaddr = (1 + i) * 0x100000;
               })))
  done;
  let live_mappings () =
    let pt_live pt =
      let n = ref 0 in
      for j = 0 to pt_entries_count - 1 do
        if pt.pt_entries.(j) <> Pte_invalid || pt.pt_shadow.(j) <> None then
          incr n
      done;
      !n
    in
    let n = ref 0 in
    for i = 0 to kernel_pde_first - 1 do
      match pd.pd_entries.(i) with
      | Pde_invalid -> if pd.pd_shadow.(i) <> None then incr n
      | Pde_section _ -> incr n
      | Pde_page_table pt -> n := !n + 1 + pt_live pt
      | Pde_kernel -> ()
    done;
    !n
  in
  {
    d_event = K.Ev_invoke (K.Inv_delete { target = B.cptr 30 });
    d_initiator = env.B.root_tcb;
    d_measure = live_mappings;
  }

let setup env sz : Race.op -> driver = function
  | Ep_delete -> setup_ep_delete env sz
  | Badged_abort -> setup_badged_abort env sz
  | Retype_clear -> setup_retype_clear env sz
  | Vspace_delete -> setup_vspace_delete env sz

(* --- shrinking --- *)

(* Greedy one-at-a-time removal, restarting the scan after every
   successful removal: the result is 1-minimal (removing any single
   remaining element no longer reproduces the failure). *)
let shrink ~fails schedule =
  let remove_nth i l = List.filteri (fun j _ -> j <> i) l in
  let rec minimise sched =
    let rec scan i =
      if i >= List.length sched then sched
      else
        let cand = remove_nth i sched in
        if fails cand then minimise cand else scan (i + 1)
    in
    scan 0
  in
  minimise schedule

(* --- actions --- *)

(* Footprint instances are root-CNode slot indices: every object an
   explore footprint names is identified by the slot of its defining
   capability (the endpoint under deletion sits at slot 10, the
   notifications at 50/51).  Self-consistent within this module; the
   class-level [Race] catalogue never names instances. *)
type action = {
  act_name : string;
  act_fp : Race.footprint;
  act_actor_slot : int;  (** root-CNode slot of the acting thread's TCB *)
  act_event : K.event option;  (** [None]: the preemption alone ("pause") *)
}

let pause = { act_name = "pause"; act_fp = []; act_actor_slot = 0; act_event = None }

(* ep_delete scenario: notifications A (slot 50) and B (slot 51), actor
   threads at slots 60-62.  signal_a/poll_a race on notification A's word
   (signal ORs the badge in, poll reads and clears it — the order is
   digest-visible); signal_b touches only notification B and commutes
   with everything. *)
let ep_delete_actions =
  [
    pause;
    {
      act_name = "signal_a";
      act_fp = [ Race.r ~obj:50 Race.Cap; Race.w ~obj:50 Race.Notification ];
      act_actor_slot = 60;
      act_event = Some (K.Ev_signal { ntfn = B.cptr 50 });
    };
    {
      act_name = "poll_a";
      act_fp = Race.r ~obj:50 Race.Cap :: Race.rw ~obj:50 Race.Notification;
      act_actor_slot = 61;
      act_event = Some (K.Ev_poll { ntfn = B.cptr 50 });
    };
    {
      act_name = "signal_b";
      act_fp = [ Race.r ~obj:51 Race.Cap; Race.w ~obj:51 Race.Notification ];
      act_actor_slot = 62;
      act_event = Some (K.Ev_signal { ntfn = B.cptr 51 });
    };
  ]

(* badged_abort scenario: a fresh client re-queues on the endpoint under
   abort through the badge-7 cap (slot 11) mid-scan — the cross-op
   interference of Section 3.4.  The send conflicts with every abort
   section on the endpoint queue; the abort's progress measure is immune
   by construction (the scan stops at the end-of-queue marker captured
   when the abort began), which the measure oracle re-checks on every
   explored schedule. *)
let badged_abort_actions =
  [
    pause;
    {
      act_name = "requeue";
      act_fp =
        (Race.r ~obj:11 Race.Cap :: Race.rw ~obj:10 Race.Endpoint)
        @ [ Race.w Race.Tcb ];
      act_actor_slot = 60;
      act_event =
        Some
          (K.Ev_send
             { ep = B.cptr 11; msg_len = 1; extra_caps = []; blocking = true });
    };
    {
      act_name = "signal_b";
      act_fp = [ Race.r ~obj:51 Race.Cap; Race.w ~obj:51 Race.Notification ];
      act_actor_slot = 61;
      act_event = Some (K.Ev_signal { ntfn = B.cptr 51 });
    };
  ]

(* The operation's own sections, instantiated for the scenario's concrete
   objects (endpoint cap at slot 10), plus the IRQ-delivery path taken at
   every preemption: the environment an action must commute with. *)
let op_sections op =
  let overhead = Race.rw Race.Kernel_stack @ [ Race.r Race.Irq_state ] in
  let irq_deliver = (Race.section_exn "irq.deliver").Race.sec_fp in
  let ep_sections =
    overhead
    @ Race.rw ~obj:10 Race.Endpoint
    @ Race.rw Race.Tcb @ Race.rw Race.Sched_queues
    @ [
        Race.r ~obj:10 Race.Cap;
        Race.w ~obj:10 Race.Cap;
        Race.w ~obj:10 Race.Cdt_links;
      ]
  in
  match op with
  | Race.Ep_delete | Race.Badged_abort -> [ ep_sections; irq_deliver ]
  | Race.Retype_clear | Race.Vspace_delete ->
      (* No client-action scenario names these operations' objects: take
         the class-level catalogue sections, which name no instance and
         so conflict with every one. *)
      List.filter_map
        (fun (s : Race.section) ->
          if s.sec_op = Some op then Some s.sec_fp else None)
        Race.catalogue
      @ [ irq_deliver ]

let actions_for = function
  | Race.Ep_delete -> ep_delete_actions
  | Race.Badged_abort -> badged_abort_actions
  | Race.Retype_clear | Race.Vspace_delete -> []

(* Globally independent: commutes (on digest-visible state) with the
   operation's sections, the IRQ path, and every other action. *)
let independent_actions op alphabet =
  let sections = op_sections op in
  List.filter
    (fun a ->
      List.for_all
        (Race.independent ~semantic_only:true a.act_fp)
        sections
      && List.for_all
           (fun b ->
             b.act_name = a.act_name
             || Race.independent ~semantic_only:true a.act_fp b.act_fp)
           alphabet)
    alphabet
  |> List.map (fun a -> a.act_name)

(* --- scenario workload extras --- *)

(* Spawned after [setup] when the alphabet is not empty: the
   notifications the actions target and a runnable actor thread per
   acting slot.  Slots 50+ are disjoint from the operation workloads
   (endpoint at 10, badged caps at 11/12, parked senders from 20). *)
let extra_setup op env =
  let alphabet = actions_for op in
  if alphabet <> [] then begin
    ignore (B.spawn_notification env ~dest:50);
    ignore (B.spawn_notification env ~dest:51);
    alphabet
    |> List.filter_map (fun a ->
           if a.act_event = None then None else Some a.act_actor_slot)
    |> List.sort_uniq compare
    |> List.iter (fun slot ->
           B.make_runnable env (B.spawn_thread env ~priority:50 ~dest:slot));
    K.force_run env.B.k env.B.root_tcb
  end

let tcb_at env slot =
  match env.B.root_cnode.cn_slots.(slot).cap with
  | Tcb_cap t -> t
  | _ -> invalid_arg (Fmt.str "Explore: no TCB cap at actor slot %d" slot)

(* --- schedules --- *)

type sched = (int * action) list
(* Sorted by poll; distinct polls, distinct actions. *)

let descr (s : sched) = List.map (fun (p, a) -> (p, a.act_name)) s

(* Subsets of size [k], elements kept in order. *)
let rec subsets k = function
  | _ when k = 0 -> [ [] ]
  | [] -> []
  | x :: rest ->
      List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest

(* Ordered arrangements of [k] distinct elements. *)
let rec arrangements k l =
  if k = 0 then [ [] ]
  else
    List.concat_map
      (fun x ->
        List.map
          (fun rest -> x :: rest)
          (arrangements (k - 1) (List.filter (fun y -> y != x) l)))
      l

let universe ~polls ~depth alphabet : sched list =
  let all_polls = List.init polls (fun i -> i + 1) in
  List.concat_map
    (fun d ->
      List.concat_map
        (fun poll_set ->
          List.map
            (fun acts -> List.combine poll_set acts)
            (arrangements d alphabet))
        (subsets d all_polls))
    (List.init (min depth (List.length alphabet)) (fun i -> i + 1))

(* Canonicity: the globally-independent actions of a schedule, taken in
   name order, must occupy the smallest polls left free by the decision
   actions.  Every schedule is digest-equivalent to exactly one canonical
   one (slide each independent action, in turn, to its canonical poll:
   each slide crosses only sections and actions it commutes with), so
   exploring canonical schedules covers every equivalence class. *)
let canonical ~polls ~indep (s : sched) =
  let dep_polls =
    List.filter_map
      (fun (p, a) -> if List.mem a.act_name indep then None else Some p)
      s
  in
  let free =
    List.filter
      (fun p -> not (List.mem p dep_polls))
      (List.init polls (fun i -> i + 1))
  in
  let placed =
    List.filter (fun (_, a) -> List.mem a.act_name indep) s
    (* schedules are poll-sorted already *)
  in
  let expected_names =
    List.sort compare (List.map (fun (_, a) -> a.act_name) placed)
  in
  let expected =
    List.combine
      (List.filteri (fun i _ -> i < List.length placed) free)
      expected_names
  in
  List.map (fun (p, a) -> (p, a.act_name)) placed = expected

(* --- one run --- *)

let ( let* ) = Result.bind

let check_invariants k =
  match Sel4.Invariants.check_result k with
  | Ok () -> Ok ()
  | Error ms -> Error ("invariants: " ^ String.concat "; " ms)

type run = { r_digest : string; r_polls : int; r_restarts : int }

(* Replay [op] under [build], firing the preemptions of [schedule] and
   running each fired action in the window its preemption opens.  After
   every kernel exit the invariant catalogue runs and the progress
   measure is checked.  [observe k enter] wraps each of the driver's
   kernel entries: it must call [enter] once and return its outcome. *)
let run_sched ?cpu ?(observe = fun _ enter -> enter ()) ~build ~op ~sz
    ~(schedule : sched) () =
  match
    let env = B.boot ?cpu build in
    let d = setup env sz op in
    extra_setup op env;
    let k = env.B.k in
    K.set_injection_hook k
      (Some (fun poll -> List.mem_assoc poll schedule));
    let executed = Hashtbl.create 8 in
    let perform (poll, act) =
      Hashtbl.replace executed poll ();
      match act.act_event with
      | None -> Ok ()
      | Some ev -> (
          K.force_run k (tcb_at env act.act_actor_slot);
          match K.kernel_entry k ev with
          | K.Preempted -> Error (act.act_name ^ ": action itself preempted")
          | K.Failed e -> Error (act.act_name ^ ": " ^ e)
          | K.Completed -> check_invariants k)
    in
    let max_entries = 4096 + (4 * List.length schedule) in
    let rec go entries last_m =
      if entries > max_entries then
        Error "runaway restart loop (no forward progress?)"
      else begin
        K.force_run k d.d_initiator;
        let outcome = observe k (fun () -> K.kernel_entry k d.d_event) in
        let* () = check_invariants k in
        match outcome with
        | K.Failed e -> Error ("kernel reported: " ^ e)
        | K.Completed ->
            let m = d.d_measure () in
            if m <> 0 then
              Error (Fmt.str "completed with residual measure %d" m)
            else begin
              let polls = K.preempt_polls k in
              K.set_injection_hook k None;
              Ok
                {
                  r_digest = Sel4.Digest.of_kernel k;
                  r_polls = polls;
                  r_restarts = entries - 1;
                }
            end
        | K.Preempted ->
            let m = d.d_measure () in
            let* () =
              match last_m with
              | Some lm when m >= lm ->
                  Error
                    (Fmt.str
                       "restart progress violated: measure %d after %d (must \
                        strictly decrease)"
                       m lm)
              | _ -> Ok ()
            in
            let fired =
              List.filter
                (fun (p, _) ->
                  p <= K.preempt_polls k && not (Hashtbl.mem executed p))
                schedule
            in
            let* () =
              List.fold_left
                (fun acc pa -> Result.bind acc (fun () -> perform pa))
                (Ok ()) fired
            in
            go (entries + 1) (Some m)
      end
    in
    go 1 None
  with
  | result -> result
  | exception B.Boot_failure e -> Error ("setup: " ^ e)
  | exception Sel4.Invariants.Violation e -> Error ("invariant raised: " ^ e)

(* Replay a failing schedule with the cycle-accurate tracer attached and
   render the event timeline for the report. *)
let timeline ~config ~build ~op ~sz schedule =
  let cpu = Hw.Cpu.create config in
  let buf = Obs.Trace.create ~capacity:8192 () in
  Hw.Cpu.set_trace_buffer cpu buf;
  ignore (run_sched ~cpu ~build ~op ~sz ~schedule ());
  Fmt.str "%a" Obs.Trace.pp_timeline buf

(* --- reports --- *)

type failure = {
  x_variant : string;
  x_schedule : (int * string) list;
  x_min_schedule : (int * string) list;
  x_reason : string;
  x_timeline : string;
}

type op_report = {
  e_op : Race.op;
  e_points : int;
  e_runs : int;
  e_max_restarts : int;
  e_depth : int;
  e_polls : int;
  e_alphabet : string list;
  e_independent : string list;
  e_universe : int;
  e_explored : int;
  e_pruned : int;
  e_deduped : int;
  e_digest_classes : int;
  e_digests : ((int * string) list * string) list;
  e_failures : failure list;
}

type report = {
  x_depth : int;
  x_ops : op_report list;
  x_total_runs : int;
}

(* --- metrics --- *)

let m_runs = Obs.Metrics.counter "explore.runs"
let m_points = Obs.Metrics.counter "explore.points_covered"
let m_universe = Obs.Metrics.counter "explore.universe"
let m_explored = Obs.Metrics.counter "explore.explored"
let m_pruned = Obs.Metrics.counter "explore.pruned"
let m_deduped = Obs.Metrics.counter "explore.deduped"
let m_failures = Obs.Metrics.counter "explore.failures"
let m_shrink_runs = Obs.Metrics.counter "explore.shrink_runs"
let m_max_restarts = Obs.Metrics.counter "explore.max_restarts"

(* --- the campaign --- *)

let vname (b : Sel4.Build.t) = Sel4.Build.sched_name b.sched

(* DPOR's workload is smaller than {!sizes}: its breadth is the
   schedule space, not the object counts, and poll indices must stay
   enumerable. *)
let dpor_sz =
  {
    sz_waiters = 5;
    sz_abort_waiters = 6;
    sz_frame_bits = 12;
    sz_ptes = 4;
    sz_sections = 1;
  }

let run_op ?(naive = false) ?(planted = fun _ -> None) ~depth
    (actx : Sel4_rt.Analysis_ctx.t) op =
  let builds = variants ~base:actx.build op in
  let runs = ref 0 in
  let max_restarts = ref 0 in
  let failures = ref [] in
  (* The one oracle every schedule is judged (and shrunk) by: the planted
     fault, then a replay under each build, then agreement of the final
     states across the builds and, when given, with [expect]. *)
  let judge ~sz ~builds ~expect schedule =
    match planted schedule with
    | Some reason -> Error (List.hd builds, "planted", reason)
    | None -> (
        let rec replay acc = function
          | [] -> Ok (List.rev acc)
          | build :: more -> (
              incr runs;
              Obs.Metrics.incr m_runs;
              match run_sched ~build ~op ~sz ~schedule () with
              | Error e -> Error (build, vname build, e)
              | Ok r ->
                  max_restarts := max !max_restarts r.r_restarts;
                  replay ((build, r) :: acc) more)
        in
        let* results = replay [] builds in
        let b0, r0 = List.hd results in
        match
          List.find_opt
            (fun (_, r) -> r.r_polls <> r0.r_polls || r.r_digest <> r0.r_digest)
            results
        with
        | Some (b, r) ->
            Error
              ( b,
                "differential",
                Fmt.str "runs diverge between %s and %s (%s)" (vname b0)
                  (vname b)
                  (if r.r_polls <> r0.r_polls then
                     Fmt.str "polls %d vs %d" r0.r_polls r.r_polls
                   else "final states differ") )
        | None -> (
            match expect with
            | Some d when r0.r_digest <> d ->
                Error
                  (b0, vname b0, "final state differs from uninterrupted run")
            | _ -> Ok r0))
  in
  (* Judge [schedule]; a failure is shrunk, replayed under the tracer and
     recorded. *)
  let check ~sz ~builds ~expect schedule =
    match judge ~sz ~builds ~expect schedule with
    | Ok r -> Some r
    | Error (build, variant, reason) ->
        let fails cand =
          Obs.Metrics.incr m_shrink_runs;
          Result.is_error (judge ~sz ~builds ~expect cand)
        in
        let min_schedule = shrink ~fails schedule in
        failures :=
          {
            x_variant = variant;
            x_schedule = descr schedule;
            x_min_schedule = descr min_schedule;
            x_reason = reason;
            x_timeline =
              timeline ~config:actx.config ~build ~op ~sz min_schedule;
          }
          :: !failures;
        None
  in
  let alphabet = actions_for op in
  let indep = independent_actions op alphabet in
  (* DPOR from a reference run of [polls] polls at [dpor_sz]: returns H,
     the universe size, the explored count and each explored schedule's
     final digest. *)
  let dpor polls =
    let all = universe ~polls ~depth alphabet in
    let explored =
      if naive then all else List.filter (canonical ~polls ~indep) all
    in
    let builds = if naive then [ List.hd builds ] else builds in
    let digests =
      List.filter_map
        (fun schedule ->
          check ~sz:dpor_sz ~builds ~expect:None schedule
          |> Option.map (fun r -> (descr schedule, r.r_digest)))
        explored
    in
    (polls, List.length all, List.length explored, digests)
  in
  let no_dpor = (0, 0, 0, []) in
  let sz = sizes in
  let points, (polls, universe, explored, digests) =
    match check ~sz ~builds ~expect:None [] with
    | None -> (0, no_dpor)
    | Some base ->
        let h = base.r_polls in
        let pauses = List.map (fun p -> (p, pause)) in
        let polls = List.init h (fun i -> i + 1) in
        List.iter
          (fun schedule ->
            ignore (check ~sz ~builds ~expect:(Some base.r_digest) schedule))
          (List.map (fun p -> pauses [ p ]) polls @ [ pauses polls ]);
        let reference =
          if alphabet = [] then None
          else check ~sz:dpor_sz ~builds ~expect:None []
        in
        (h, Option.fold ~none:no_dpor ~some:(fun r -> dpor r.r_polls) reference)
  in
  let classes = List.length (List.sort_uniq compare (List.map snd digests)) in
  {
    e_op = op;
    e_points = points;
    e_runs = !runs;
    e_max_restarts = !max_restarts;
    e_depth = depth;
    e_polls = polls;
    e_alphabet = List.map (fun a -> a.act_name) alphabet;
    e_independent = indep;
    e_universe = universe;
    e_explored = explored;
    e_pruned = universe - explored;
    e_deduped = List.length digests - classes;
    e_digest_classes = classes;
    e_digests = digests;
    e_failures = List.rev !failures;
  }

let scenario_depth ~depth = function
  | Race.Badged_abort -> min depth 2
  | _ -> depth

let run ?(depth = 3) (actx : Sel4_rt.Analysis_ctx.t) =
  (* Depth 0 has an empty universe: nothing explored, trivially ok. *)
  if depth < 1 then invalid_arg (Fmt.str "explore depth %d: must be >= 1" depth);
  let ops =
    List.map
      (fun op -> run_op ~depth:(scenario_depth ~depth op) actx op)
      Race.ops
  in
  List.iter
    (fun o ->
      Obs.Metrics.incr ~by:o.e_points m_points;
      Obs.Metrics.incr ~by:o.e_universe m_universe;
      Obs.Metrics.incr ~by:o.e_explored m_explored;
      Obs.Metrics.incr ~by:o.e_pruned m_pruned;
      Obs.Metrics.incr ~by:o.e_deduped m_deduped;
      Obs.Metrics.incr ~by:(List.length o.e_failures) m_failures)
    ops;
  Obs.Metrics.set_counter m_max_restarts
    (List.fold_left (fun a o -> max a o.e_max_restarts) 0 ops);
  {
    x_depth = depth;
    x_ops = ops;
    x_total_runs = List.fold_left (fun a o -> a + o.e_runs) 0 ops;
  }

let ok r = List.for_all (fun o -> o.e_failures = []) r.x_ops

(* --- footprint audit --- *)

(* The audit observes the preempt-everywhere schedule of the sweep under
   every scheduler variant, on a CPU whose tracer records data loads and
   stores only inside the driver's kernel entries (never in [force_run]'s
   context switch or an action).  An entry's accesses belong to the
   operation's section until its poll fires, and to the IRQ-delivery path
   after it.  Objects are classified as they stood before the first entry
   and after the last: retype creates objects mid-run, deletion retires
   them. *)
let audit ?catalogue ?(ops = Race.ops) (actx : Sel4_rt.Analysis_ctx.t) =
  let replay ~build ~op ?cpu ?observe schedule =
    match run_sched ?cpu ?observe ~build ~op ~sz:sizes ~schedule () with
    | Ok r -> r
    | Error e ->
        invalid_arg (Fmt.str "Explore.audit: %s: %s" (Race.op_name op) e)
  in
  List.fold_left
    (fun report op ->
      List.fold_left
        (fun report build ->
          let h = (replay ~build ~op []).r_polls in
          let cpu = Hw.Cpu.create Hw.Config.default in
          let before = ref None and after = ref [] and entries = ref [] in
          let observe k enter =
            if Option.is_none !before then before := Some k.K.objects;
            let polls = K.preempt_polls k in
            let section = ref [] and irq = ref [] in
            Hw.Cpu.set_tracer cpu (fun kind addr ->
                if kind <> Hw.Cpu.Fetch then
                  let window =
                    if K.preempt_polls k = polls then section else irq
                  in
                  window := (addr, kind = Hw.Cpu.Store) :: !window);
            let outcome = enter () in
            Hw.Cpu.clear_tracer cpu;
            entries :=
              { Race.el_section = List.rev !section; el_irq = List.rev !irq }
              :: !entries;
            after := Any_tcb k.K.idle :: k.K.objects;
            outcome
          in
          ignore
            (replay ~build ~op ~cpu ~observe
               (List.init h (fun i -> (i + 1, pause))));
          Race.audit_add ?catalogue report op
            ~objects:(Option.value ~default:[] !before @ !after)
            (List.rev !entries))
        report
        (variants ~base:actx.build op))
    Race.audit_empty ops

(* --- rendering --- *)

let pp_sched ppf s =
  Fmt.pf ppf "[%s]"
    (String.concat "; " (List.map (fun (p, n) -> Fmt.str "%d:%s" p n) s))

let pp_report ppf r =
  Fmt.pf ppf "preemption-schedule campaign (depth <= %d): %d runs@."
    r.x_depth r.x_total_runs;
  List.iter
    (fun o ->
      Fmt.pf ppf "  %-14s %3d points, %4d runs, max %d restarts: %s@."
        (Race.op_name o.e_op) o.e_points o.e_runs o.e_max_restarts
        (if o.e_failures = [] then "ok"
         else Fmt.str "%d FAILURES" (List.length o.e_failures));
      if o.e_alphabet <> [] then
        Fmt.pf ppf
          "    dpor depth %d, polls=%d alphabet={%s} independent={%s}@.\
          \    universe=%d explored=%d pruned=%d (%.0f%%) deduped=%d \
           digest_classes=%d@."
          o.e_depth o.e_polls
          (String.concat "," o.e_alphabet)
          (String.concat "," o.e_independent)
          o.e_universe o.e_explored o.e_pruned
          (if o.e_universe = 0 then 0.
           else 100. *. float_of_int o.e_pruned /. float_of_int o.e_universe)
          o.e_deduped o.e_digest_classes;
      List.iter
        (fun f ->
          Fmt.pf ppf "    FAIL [%s] schedule %a shrunk to %a: %s@." f.x_variant
            pp_sched f.x_schedule pp_sched f.x_min_schedule f.x_reason;
          if f.x_timeline <> "" then
            Fmt.pf ppf "    timeline of minimal replay:@.%s@." f.x_timeline)
        o.e_failures)
    r.x_ops

let to_json r =
  let open Obs.Json in
  let sched = list (fun (p, n) -> Arr [ int p; Str n ]) in
  let failure f =
    Obj
      [
        ("variant", Str f.x_variant); ("schedule", sched f.x_schedule);
        ("min_schedule", sched f.x_min_schedule); ("reason", Str f.x_reason);
      ]
  in
  let op o =
    Obj
      [
        ("name", Str (Race.op_name o.e_op)); ("points", int o.e_points);
        ("runs", int o.e_runs); ("max_restarts", int o.e_max_restarts);
        ("depth", int o.e_depth); ("polls", int o.e_polls);
        ("universe", int o.e_universe); ("explored", int o.e_explored);
        ("pruned", int o.e_pruned); ("deduped", int o.e_deduped);
        ("digest_classes", int o.e_digest_classes);
        ("failures", list failure o.e_failures);
      ]
  in
  Obj
    [
      ("campaign", Str "explore"); ("depth", int r.x_depth);
      ("ok", Bool (ok r)); ("total_runs", int r.x_total_runs);
      ("ops", list op r.x_ops);
    ]
