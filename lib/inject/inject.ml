(* Exhaustive preemption-point fault injection with differential scheduler
   checking.

   The engine replays each long-running operation under every scheduler
   variant, injecting timer interrupts at chosen preemption-point polls.
   Injection is indexed by poll, not by cycle: the poll sequence of an
   operation is a pure function of the work it has left, so a schedule
   means the same thing under lazy, Benno and Benno+bitmap scheduling, and
   the three final states can be compared byte for byte. *)

open Sel4.Ktypes
module K = Sel4.Kernel
module B = Sel4.Boot

type op = Ep_delete | Badged_abort | Retype_clear | Vspace_delete

let all_ops = [ Ep_delete; Badged_abort; Retype_clear; Vspace_delete ]

let op_name = function
  | Ep_delete -> "ep_delete"
  | Badged_abort -> "badged_abort"
  | Retype_clear -> "retype_clear"
  | Vspace_delete -> "vspace_delete"

type failure = {
  f_op : op;
  f_variant : string;
  f_schedule : int list;
  f_min_schedule : int list;
  f_reason : string;
  f_timeline : string;
}

type op_report = {
  o_op : op;
  o_points : int;
  o_runs : int;
  o_max_restarts : int;
  o_failures : failure list;
}

type report = {
  r_seed : int;
  r_smoke : bool;
  r_ops : op_report list;
  r_total_runs : int;
}

(* --- metrics --- *)

let m_campaigns = Obs.Metrics.counter "inject.campaigns"
let m_runs = Obs.Metrics.counter "inject.runs"
let m_points = Obs.Metrics.counter "inject.points_covered"
let m_failures = Obs.Metrics.counter "inject.failures"
let m_shrink_runs = Obs.Metrics.counter "inject.shrink_runs"
let m_max_restarts = Obs.Metrics.counter "inject.max_restarts"

(* Randomness comes from the shared audited source ({!Sel4_rt.Prng},
   splitmix64): same stream as the historical private generator, so
   campaign results at a given seed are unchanged. *)

(* A sorted multi-injection schedule: 2..5 distinct polls out of [1..n]. *)
let random_schedule r n =
  let want = min n (2 + Sel4_rt.Prng.int r 4) in
  let rec draw acc =
    if List.length acc >= want then acc
    else
      let k = 1 + Sel4_rt.Prng.int r n in
      if List.mem k acc then draw acc else draw (k :: acc)
  in
  List.sort compare (draw [])

(* --- workload sizes --- *)

type sizes = {
  sz_waiters : int;  (* blocked senders queued for deletion *)
  sz_abort_waiters : int;  (* blocked badged senders *)
  sz_frame_bits : int;  (* retyped frame size (cleared in chunks) *)
  sz_ptes : int;  (* small pages mapped through the page table *)
  sz_sections : int;  (* 1 MiB sections mapped in the directory *)
}

let sizes ~smoke =
  if smoke then
    { sz_waiters = 5; sz_abort_waiters = 6; sz_frame_bits = 12; sz_ptes = 4; sz_sections = 1 }
  else
    { sz_waiters = 12; sz_abort_waiters = 14; sz_frame_bits = 14; sz_ptes = 10; sz_sections = 2 }

(* --- scheduler variants under differential test --- *)

let variant_name = function
  | Sel4.Build.Lazy -> "lazy"
  | Sel4.Build.Benno -> "benno"
  | Sel4.Build.Benno_bitmap -> "benno_bitmap"

let variants ~(base : Sel4.Build.t) op =
  let vspace =
    (* Preemptible address-space teardown exists only in the shadow
       design; the ASID design deletes in O(1) with nothing to inject
       into. *)
    match op with
    | Vspace_delete -> Sel4.Build.Shadow_tables
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

let queue_len (ep : endpoint) =
  let rec go n = function None -> n | Some t -> go (n + 1) t.ep_next in
  go 0 ep.ep_queue.head

(* Length of the remaining abort scan: nodes from the cursor to the
   end-of-queue marker captured when the abort began. *)
let abort_scan_len (ep : endpoint) =
  match ep.ep_abort with
  | None -> 0
  | Some p ->
      let rec go n = function
        | None -> n
        | Some t -> (
            let n = n + 1 in
            match p.ab_last with
            | Some l when l == t -> n
            | _ -> go n t.ep_next)
      in
      go 0 p.ab_cursor

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
    d_measure = (fun () -> (if ep.ep_active then 1 else 0) + queue_len ep);
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
    d_measure =
      (fun () ->
        match ep.ep_abort with None -> 0 | Some _ -> abort_scan_len ep);
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

let setup env sz = function
  | Ep_delete -> setup_ep_delete env sz
  | Badged_abort -> setup_badged_abort env sz
  | Retype_clear -> setup_retype_clear env sz
  | Vspace_delete -> setup_vspace_delete env sz

(* --- state digest --- *)

(* The canonical rendering lives in {!Sel4.Digest} (shared with the
   schedule explorer and the soak simulator); the campaign keeps its
   historical name for it. *)
let digest_of = Sel4.Digest.of_kernel

(* --- one injected run --- *)

type run_stats = { rs_digest : string; rs_restarts : int; rs_polls : int }

(* Replay [op] under [build], asserting a timer interrupt at every poll
   index in [schedule].  After every kernel exit the invariant catalogue
   runs and the progress measure is checked; the result is the final-state
   digest, for differential comparison. *)
let run_one ?cpu ~build ~op ~sz ~schedule () =
  match
    let env = B.boot ?cpu build in
    let d = setup env sz op in
    let k = env.B.k in
    K.set_injection_hook k (Some (fun poll -> List.mem poll schedule));
    let max_entries = 4096 + (4 * List.length schedule) in
    let check_invariants () =
      match Sel4.Invariants.check_result k with
      | Ok () -> Ok ()
      | Error ms -> Error ("invariants: " ^ String.concat "; " ms)
    in
    let rec go entries last_preempt_measure =
      if entries > max_entries then
        Error "runaway restart loop (no forward progress?)"
      else begin
        K.force_run k d.d_initiator;
        let outcome = K.kernel_entry k d.d_event in
        match check_invariants () with
        | Error _ as e -> e
        | Ok () -> (
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
                      rs_digest = digest_of k;
                      rs_restarts = entries - 1;
                      rs_polls = polls;
                    }
                end
            | K.Preempted ->
                let m = d.d_measure () in
                (match last_preempt_measure with
                | Some lm when m >= lm ->
                    Error
                      (Fmt.str
                         "restart progress violated: measure %d after %d \
                          (must strictly decrease)"
                         m lm)
                | _ -> go (entries + 1) (Some m)))
      end
    in
    go 1 None
  with
  | result -> result
  | exception B.Boot_failure e -> Error ("setup: " ^ e)
  | exception Sel4.Invariants.Violation e -> Error ("invariant raised: " ^ e)

(* --- shrinking --- *)

(* Greedy one-at-a-time removal, restarting the scan after every
   successful removal: the result is 1-minimal (removing any single
   remaining injection no longer reproduces the failure). *)
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

(* --- the campaign --- *)

(* Run one schedule under all variants; return the first failure, as
   (variant, reason), checking each run's own invariants and progress,
   then digest agreement with the uninterrupted baseline and across
   variants. *)
let run_schedule ~builds ~op ~sz ~baseline_digest ~stats ~note_rs schedule =
  let rec go acc = function
    | [] -> (
        match List.rev acc with
        | [] -> None
        | (v0, d0) :: rest -> (
            if d0 <> baseline_digest then
              Some
                ( variant_name v0.Sel4.Build.sched,
                  "final state differs from uninterrupted run" )
            else
              match
                List.find_opt (fun (_, d) -> d <> d0) rest
              with
              | Some (v, _) ->
                  Some
                    ( "differential",
                      Fmt.str "final state diverges between %s and %s"
                        (variant_name v0.Sel4.Build.sched)
                        (variant_name v.Sel4.Build.sched) )
              | None -> None))
    | build :: more -> (
        Obs.Metrics.incr m_runs;
        incr stats;
        match run_one ~build ~op ~sz ~schedule () with
        | Error e -> Some (variant_name build.Sel4.Build.sched, e)
        | Ok rs ->
            note_rs rs.rs_restarts;
            go ((build, rs.rs_digest) :: acc) more)
  in
  go [] builds

let max_restarts_seen = ref 0

let note_restarts n = if n > !max_restarts_seen then max_restarts_seen := n

(* Replay a failing (variant, schedule) with the cycle-accurate tracer
   attached and render the event timeline for the report. *)
let replay_timeline ~config ~build ~op ~sz ~schedule =
  let cpu = Hw.Cpu.create config in
  let buf = Obs.Trace.create ~capacity:8192 () in
  Hw.Cpu.set_trace_buffer cpu buf;
  ignore (run_one ~cpu ~build ~op ~sz ~schedule ());
  Fmt.str "%a" Obs.Trace.pp_timeline buf

let op_campaign ~config ~base_build ~sz ~rng ~random_schedules ~planted op =
  Obs.Metrics.incr m_campaigns;
  let builds = variants ~base:base_build op in
  let runs = ref 0 in
  let failures = ref [] in
  let op_max = ref 0 in
  let note_rs n =
    note_restarts n;
    if n > !op_max then op_max := n
  in
  let planted_reason schedule =
    match planted with None -> None | Some f -> f op schedule
  in
  (* The failure oracle a schedule is judged (and shrunk) by. *)
  let failure_of ~baseline_digest schedule =
    match planted_reason schedule with
    | Some reason -> Some ("planted", reason)
    | None ->
        run_schedule ~builds ~op ~sz ~baseline_digest ~stats:runs ~note_rs
          schedule
  in
  (* Uninterrupted reference runs: poll count and baseline digest, which
     must already agree across the scheduler variants. *)
  let baselines =
    List.map
      (fun build ->
        Obs.Metrics.incr m_runs;
        incr runs;
        (build, run_one ~build ~op ~sz ~schedule:[] ()))
      builds
  in
  let record ~variant ~schedule ~min_schedule ~reason ~build =
    Obs.Metrics.incr m_failures;
    let timeline =
      replay_timeline ~config ~build ~op ~sz ~schedule:min_schedule
    in
    failures :=
      {
        f_op = op;
        f_variant = variant;
        f_schedule = schedule;
        f_min_schedule = min_schedule;
        f_reason = reason;
        f_timeline = timeline;
      }
      :: !failures
  in
  let points = ref 0 in
  (match
     List.find_opt (fun (_, r) -> Result.is_error r) baselines
   with
  | Some (build, Error reason) ->
      record
        ~variant:(variant_name build.Sel4.Build.sched)
        ~schedule:[] ~min_schedule:[] ~reason ~build
  | _ -> (
      let ok_baselines =
        List.filter_map
          (fun (b, r) -> match r with Ok rs -> Some (b, rs) | Error _ -> None)
          baselines
      in
      let b0, rs0 = List.hd ok_baselines in
      List.iter (fun (_, rs) -> note_rs rs.rs_restarts) ok_baselines;
      match
        List.find_opt
          (fun (_, rs) ->
            rs.rs_polls <> rs0.rs_polls || rs.rs_digest <> rs0.rs_digest)
          (List.tl ok_baselines)
      with
      | Some (b, rs) ->
          record ~variant:"differential" ~schedule:[] ~min_schedule:[]
            ~reason:
              (Fmt.str
                 "uninterrupted runs diverge between %s and %s (polls %d vs \
                  %d%s)"
                 (variant_name b0.Sel4.Build.sched)
                 (variant_name b.Sel4.Build.sched)
                 rs0.rs_polls rs.rs_polls
                 (if rs.rs_digest <> rs0.rs_digest then ", digests differ"
                  else ""))
            ~build:b
      | None ->
          let n = rs0.rs_polls in
          points := n;
          Obs.Metrics.incr ~by:n m_points;
          let exhaustive = List.init n (fun k -> [ k + 1 ]) in
          let seeded =
            if n < 2 then []
            else List.init random_schedules (fun _ -> random_schedule rng n)
          in
          let baseline_digest = rs0.rs_digest in
          List.iter
            (fun schedule ->
              match failure_of ~baseline_digest schedule with
              | None -> ()
              | Some (variant, reason) ->
                  let fails cand =
                    Obs.Metrics.incr m_shrink_runs;
                    Option.is_some (failure_of ~baseline_digest cand)
                  in
                  let min_schedule = shrink ~fails schedule in
                  record ~variant ~schedule ~min_schedule ~reason ~build:b0)
            (exhaustive @ seeded)));
  {
    o_op = op;
    o_points = !points;
    o_runs = !runs;
    o_max_restarts = !op_max;
    o_failures = List.rev !failures;
  }

let run_campaign ?(smoke = false) ?(seed = 42) ?(ops = all_ops) ?planted
    (ctx : Sel4_rt.Analysis_ctx.t) =
  max_restarts_seen := 0;
  let sz = sizes ~smoke in
  let rng = Sel4_rt.Prng.create seed in
  let random_schedules = if smoke then 5 else 40 in
  let reports =
    List.map
      (op_campaign ~config:ctx.Sel4_rt.Analysis_ctx.config
         ~base_build:ctx.Sel4_rt.Analysis_ctx.build ~sz ~rng ~random_schedules
         ~planted)
      ops
  in
  Obs.Metrics.set_counter m_max_restarts !max_restarts_seen;
  {
    r_seed = seed;
    r_smoke = smoke;
    r_ops = reports;
    r_total_runs = List.fold_left (fun a o -> a + o.o_runs) 0 reports;
  }

let ok r = List.for_all (fun o -> o.o_failures = []) r.r_ops

let pp_report ppf r =
  Fmt.pf ppf "fault-injection campaign: seed %d, %s, %d runs@." r.r_seed
    (if r.r_smoke then "smoke" else "full")
    r.r_total_runs;
  List.iter
    (fun o ->
      Fmt.pf ppf "  %-14s %3d points, %4d runs, max %d restarts: %s@."
        (op_name o.o_op) o.o_points o.o_runs o.o_max_restarts
        (if o.o_failures = [] then "ok"
         else Fmt.str "%d FAILURES" (List.length o.o_failures));
      List.iter
        (fun f ->
          Fmt.pf ppf "    [%s] schedule %a shrunk to %a: %s@." f.f_variant
            Fmt.(Dump.list int)
            f.f_schedule
            Fmt.(Dump.list int)
            f.f_min_schedule f.f_reason;
          if f.f_timeline <> "" then
            Fmt.pf ppf "    timeline of minimal replay:@.%s@." f.f_timeline)
        o.o_failures)
    r.r_ops

(* --- machine-readable report --- *)

(* The envelope (campaign/ok/total_runs + per-unit failure arrays) is
   shared with {!Explore.to_json}, so CI tooling parses both the same
   way. *)
let to_json r =
  let open Obs.Json in
  let failure f =
    Obj
      [
        ("variant", Str f.f_variant); ("schedule", list int f.f_schedule);
        ("min_schedule", list int f.f_min_schedule); ("reason", Str f.f_reason);
      ]
  in
  let op o =
    Obj
      [
        ("name", Str (op_name o.o_op)); ("points", int o.o_points);
        ("runs", int o.o_runs); ("max_restarts", int o.o_max_restarts);
        ("failures", list failure o.o_failures);
      ]
  in
  Obj
    [
      ("campaign", Str "inject"); ("seed", int r.r_seed);
      ("smoke", Bool r.r_smoke); ("ok", Bool (ok r));
      ("total_runs", int r.r_total_runs); ("ops", list op r.r_ops);
    ]
