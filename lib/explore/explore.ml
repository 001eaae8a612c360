(* Stateless DPOR-style exploration of multi-preemption schedules.

   The injection campaign ([Inject]) sweeps single interrupts and random
   multi-interrupt schedules; this module turns the same workloads into a
   systematic model checker over {e interleavings}: a schedule places a
   preemption at a chosen poll index and runs a client {e action} — a
   signal, a notification poll, a re-queueing send — in the window the
   preemption opens, before the long-running operation restarts.

   Exhaustive enumeration of (polls x actions) explodes, so schedules are
   pruned with the static interference relation of [Race], in the style
   of dynamic partial-order reduction with persistent/sleep sets:

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

   Every explored schedule is judged by the injection oracles (invariant
   catalogue after each kernel exit, strict decrease of the progress
   measure, final-state digest agreement across the three scheduler
   variants), and final states are deduplicated by canonical digest —
   schedules converging on an already-validated state skip the
   differential replay.

   The pruning-soundness test ([test_explore]) checks the construction
   empirically: naive full enumeration and DPOR exploration must reach
   exactly the same set of final-state digests, with a substantial
   fraction pruned. *)

open Sel4.Ktypes
module K = Sel4.Kernel
module B = Sel4.Boot

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
  let irq_deliver =
    Race.rw Race.Kernel_stack @ Race.rw Race.Sched_queues @ Race.rw Race.Tcb
    @ [ Race.r Race.Irq_state; Race.w Race.Cur_thread ]
  in
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
  | Inject.Ep_delete | Inject.Badged_abort -> [ ep_sections; irq_deliver ]
  | Inject.Retype_clear | Inject.Vspace_delete ->
      invalid_arg "Explore: only ep_delete and badged_abort have scenarios"

let actions_for = function
  | Inject.Ep_delete -> ep_delete_actions
  | Inject.Badged_abort -> badged_abort_actions
  | Inject.Retype_clear | Inject.Vspace_delete ->
      invalid_arg "Explore: only ep_delete and badged_abort have scenarios"

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

(* Spawned after [Inject.setup]: the notifications the actions target and
   a runnable actor thread per acting slot.  Slots 50+ are disjoint from
   the injection workloads (endpoint at 10, badged caps at 11/12, parked
   senders from 20). *)
let extra_setup op env =
  ignore (B.spawn_notification env ~dest:50);
  ignore (B.spawn_notification env ~dest:51);
  let actor_slots =
    actions_for op
    |> List.filter_map (fun a ->
           if a.act_event = None then None else Some a.act_actor_slot)
    |> List.sort_uniq compare
  in
  List.iter
    (fun slot ->
      let t = B.spawn_thread env ~priority:50 ~dest:slot in
      B.make_runnable env t)
    actor_slots;
  K.force_run env.B.k env.B.root_tcb

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

(* Replay [op] under [build], firing the preemptions of [schedule] and
   running each fired action in the window its preemption opens.  Returns
   the final digest and the total polls of the run. *)
let run_sched ~build ~op ~sz ~(schedule : sched) () =
  match
    let env = B.boot build in
    let d = Inject.setup env sz op in
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
        let outcome = K.kernel_entry k d.d_event in
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
              Ok (Sel4.Digest.of_kernel k, polls)
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

(* --- reports --- *)

type failure = {
  x_variant : string;
  x_schedule : (int * string) list;
  x_reason : string;
}

type scen_report = {
  e_scenario : string;
  e_depth : int;
  e_polls : int;  (** H: polls of the uninterrupted reference run *)
  e_alphabet : string list;
  e_independent : string list;  (** globally-independent subset *)
  e_universe : int;
  e_explored : int;
  e_pruned : int;
  e_deduped : int;  (** explored schedules converging on a seen digest *)
  e_digest_classes : int;
  e_runs : ((int * string) list * string) list;
      (** explored schedule -> final digest (first variant) *)
  e_failures : failure list;
}

type report = {
  x_smoke : bool;
  x_depth : int;
  x_scens : scen_report list;
  x_total_runs : int;
}

(* --- metrics --- *)

let m_runs = Obs.Metrics.counter "explore.runs"
let m_universe = Obs.Metrics.counter "explore.universe"
let m_explored = Obs.Metrics.counter "explore.explored"
let m_pruned = Obs.Metrics.counter "explore.pruned"
let m_deduped = Obs.Metrics.counter "explore.deduped"
let m_failures = Obs.Metrics.counter "explore.failures"

(* --- the exploration --- *)

let scenario_depth ~depth op =
  match op with
  | Inject.Ep_delete -> depth
  | Inject.Badged_abort -> min depth 2
  | _ -> depth

let run_scenario ?(naive = false) ~depth (actx : Sel4_rt.Analysis_ctx.t) op =
  (* Workload sizes stay at smoke scale: the breadth here is the schedule
     space, not the object counts, and poll indices must stay enumerable. *)
  let sz = Inject.sizes ~smoke:true in
  let builds = Inject.variants ~base:actx.Sel4_rt.Analysis_ctx.build op in
  let v0 = List.hd builds in
  let total_runs = ref 0 in
  let run ~build schedule =
    incr total_runs;
    Obs.Metrics.incr m_runs;
    run_sched ~build ~op ~sz ~schedule ()
  in
  (* The uninterrupted reference run fixes H, the poll universe. *)
  let polls =
    match run ~build:v0 [] with
    | Ok (_, polls) -> polls
    | Error e -> invalid_arg ("Explore: reference run failed: " ^ e)
  in
  let alphabet = actions_for op in
  let indep = independent_actions op alphabet in
  let all = universe ~polls ~depth alphabet in
  let seen = Hashtbl.create 64 in
  let explored = ref 0 in
  let pruned = ref 0 in
  let deduped = ref 0 in
  let runs = ref [] in
  let failures = ref [] in
  let fail variant schedule reason =
    failures :=
      { x_variant = variant; x_schedule = descr schedule; x_reason = reason }
      :: !failures
  in
  List.iter
    (fun schedule ->
      if (not naive) && not (canonical ~polls ~indep schedule) then
        incr pruned
      else begin
        incr explored;
        match run ~build:v0 schedule with
        | Error e ->
            fail (Inject.variant_name v0.Sel4.Build.sched) schedule e
        | Ok (d0, _) ->
            runs := (descr schedule, d0) :: !runs;
            if Hashtbl.mem seen d0 then incr deduped
            else begin
              Hashtbl.replace seen d0 ();
              if not naive then
                List.iter
                  (fun build ->
                    match run ~build schedule with
                    | Error e ->
                        fail
                          (Inject.variant_name build.Sel4.Build.sched)
                          schedule e
                    | Ok (d, _) ->
                        if d <> d0 then
                          fail "differential" schedule
                            (Fmt.str
                               "final state diverges between %s and %s"
                               (Inject.variant_name v0.Sel4.Build.sched)
                               (Inject.variant_name build.Sel4.Build.sched)))
                  (List.tl builds)
            end
      end)
    all;
  ( {
      e_scenario = Inject.op_name op;
      e_depth = depth;
      e_polls = polls;
      e_alphabet = List.map (fun a -> a.act_name) alphabet;
      e_independent = indep;
      e_universe = List.length all;
      e_explored = !explored;
      e_pruned = !pruned;
      e_deduped = !deduped;
      e_digest_classes = Hashtbl.length seen;
      e_runs = List.rev !runs;
      e_failures = List.rev !failures;
    },
    !total_runs )

let scenario_ops = [ Inject.Ep_delete; Inject.Badged_abort ]

let run ?(smoke = false) ?depth (actx : Sel4_rt.Analysis_ctx.t) =
  let depth = match depth with Some d -> d | None -> if smoke then 2 else 3 in
  (* Depth 0 has an empty universe: nothing explored, trivially ok. *)
  if depth < 1 then invalid_arg (Fmt.str "explore depth %d: must be >= 1" depth);
  let ops = if smoke then [ Inject.Ep_delete ] else scenario_ops in
  let scens, total =
    List.fold_left
      (fun (acc, total) op ->
        let r, n = run_scenario ~depth:(scenario_depth ~depth op) actx op in
        (r :: acc, total + n))
      ([], 0) ops
  in
  let scens = List.rev scens in
  List.iter
    (fun s ->
      Obs.Metrics.incr ~by:s.e_universe m_universe;
      Obs.Metrics.incr ~by:s.e_explored m_explored;
      Obs.Metrics.incr ~by:s.e_pruned m_pruned;
      Obs.Metrics.incr ~by:s.e_deduped m_deduped;
      Obs.Metrics.incr ~by:(List.length s.e_failures) m_failures)
    scens;
  { x_smoke = smoke; x_depth = depth; x_scens = scens; x_total_runs = total }

let ok r = List.for_all (fun s -> s.e_failures = []) r.x_scens

(* --- rendering --- *)

let pp_report ppf r =
  Fmt.pf ppf "schedule exploration (%s, depth <= %d): %d runs@."
    (if r.x_smoke then "smoke" else "full")
    r.x_depth r.x_total_runs;
  List.iter
    (fun s ->
      Fmt.pf ppf
        "  %-14s polls=%d alphabet={%s} independent={%s}@.\
        \    universe=%d explored=%d pruned=%d (%.0f%%) deduped=%d \
         digest_classes=%d failures=%d@."
        s.e_scenario s.e_polls
        (String.concat "," s.e_alphabet)
        (String.concat "," s.e_independent)
        s.e_universe s.e_explored s.e_pruned
        (if s.e_universe = 0 then 0.
         else 100. *. float_of_int s.e_pruned /. float_of_int s.e_universe)
        s.e_deduped s.e_digest_classes
        (List.length s.e_failures);
      List.iter
        (fun f ->
          Fmt.pf ppf "    FAIL [%s] schedule [%s]: %s@." f.x_variant
            (String.concat "; "
               (List.map (fun (p, n) -> Fmt.str "%d:%s" p n) f.x_schedule))
            f.x_reason)
        s.e_failures)
    r.x_scens

(* Shares the campaign envelope with [Inject.to_json]: [campaign], [ok],
   [total_runs], and an [ops] array with per-unit [failures]. *)
let to_json r =
  let open Obs.Json in
  let failure f =
    Obj
      [
        ("variant", Str f.x_variant);
        ( "schedule",
          list (fun (p, n) -> Arr [ int p; Str n ]) f.x_schedule );
        ("reason", Str f.x_reason);
      ]
  in
  let scen s =
    Obj
      [
        ("name", Str s.e_scenario); ("polls", int s.e_polls);
        ("universe", int s.e_universe); ("explored", int s.e_explored);
        ("pruned", int s.e_pruned); ("deduped", int s.e_deduped);
        ("digest_classes", int s.e_digest_classes);
        ("failures", list failure s.e_failures);
      ]
  in
  Obj
    [
      ("campaign", Str "explore"); ("smoke", Bool r.x_smoke);
      ("depth", int r.x_depth); ("ok", Bool (ok r));
      ("total_runs", int r.x_total_runs); ("ops", list scen r.x_scens);
    ]
