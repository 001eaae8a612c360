(* Tests for the preemption-schedule campaign.  The load-bearing ones
   are soundness checks: on the depth-3 ep-delete scenario, naive full
   enumeration and DPOR exploration must reach exactly the same set of
   final-state digests while DPOR prunes a substantial fraction of the
   universe; the planted non-commuting pair (signal_a/poll_a on the same
   notification word) must be explored in both orders and reach
   different final states; and every multi-pause schedule must pass
   through exactly the states of the single-preemption sweep, which is
   why the campaign runs no random multi-pause schedules.  The shrinker
   must produce 1-minimal schedules, checked directly and end to end
   through a planted failure oracle. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))
let ctx = Sel4_rt.Analysis_ctx.default
let run_op = Explore.run_op

(* --- the static classification feeding the pruner --- *)

let test_independent_actions () =
  let alphabet = Explore.actions_for Race.Ep_delete in
  let indep = Explore.independent_actions Race.Ep_delete alphabet in
  check_bool "pause is independent" true (List.mem "pause" indep);
  check_bool "signal_b is independent" true (List.mem "signal_b" indep);
  (* The planted non-commuting pair must be classified as decisions. *)
  check_bool "signal_a is a decision" false (List.mem "signal_a" indep);
  check_bool "poll_a is a decision" false (List.mem "poll_a" indep);
  let ab = Explore.actions_for Race.Badged_abort in
  let ab_indep = Explore.independent_actions Race.Badged_abort ab in
  check_bool "requeue conflicts with the abort" false
    (List.mem "requeue" ab_indep);
  List.iter
    (fun op ->
      check_int
        (Race.op_name op ^ " has no client actions")
        0
        (List.length (Explore.actions_for op)))
    [ Race.Retype_clear; Race.Vspace_delete ]

let test_universe_counts () =
  let alphabet = Explore.actions_for Race.Ep_delete in
  (* sum over d of C(polls, d) * P(|A|, d) *)
  check_int "depth 1" 16 (List.length (Explore.universe ~polls:4 ~depth:1 alphabet));
  check_int "depth 2" (16 + 72)
    (List.length (Explore.universe ~polls:4 ~depth:2 alphabet));
  check_int "depth 3" (16 + 72 + 96)
    (List.length (Explore.universe ~polls:4 ~depth:3 alphabet));
  (* Distinct actions per schedule: depth saturates at the alphabet. *)
  check_int "depth beyond alphabet saturates"
    (List.length (Explore.universe ~polls:4 ~depth:4 alphabet))
    (List.length (Explore.universe ~polls:4 ~depth:5 alphabet))

let test_canonical_counts () =
  let alphabet = Explore.actions_for Race.Ep_delete in
  let indep = Explore.independent_actions Race.Ep_delete alphabet in
  let all = Explore.universe ~polls:4 ~depth:3 alphabet in
  let canon = List.filter (Explore.canonical ~polls:4 ~indep) all in
  (* Every schedule has exactly one canonical representative, so pruning
     is strict and substantial. *)
  check_bool "prunes at least 30%" true
    (float_of_int (List.length all - List.length canon)
     >= 0.3 *. float_of_int (List.length all));
  (* A schedule of decisions only is always canonical. *)
  let sig_a = List.find (fun a -> a.Explore.act_name = "signal_a") alphabet in
  let poll_a = List.find (fun a -> a.Explore.act_name = "poll_a") alphabet in
  check_bool "decision-only schedules are canonical" true
    (Explore.canonical ~polls:4 ~indep [ (2, sig_a); (4, poll_a) ]);
  (* An independent action parked on a non-minimal free poll is not. *)
  let sig_b = List.find (fun a -> a.Explore.act_name = "signal_b") alphabet in
  check_bool "sig_b at poll 1 is canonical" true
    (Explore.canonical ~polls:4 ~indep [ (1, sig_b) ]);
  check_bool "sig_b at poll 3 is pruned" false
    (Explore.canonical ~polls:4 ~indep [ (3, sig_b) ])

(* --- pruning soundness: naive and DPOR reach the same digest set --- *)

let test_pruning_soundness_depth3 () =
  let naive = run_op ~naive:true ~depth:3 ctx Race.Ep_delete in
  let dpor = run_op ~depth:3 ctx Race.Ep_delete in
  check_bool "naive run is clean" true (naive.Explore.e_failures = []);
  check_bool "dpor run is clean" true (dpor.Explore.e_failures = []);
  check_int "naive explores the whole universe" naive.Explore.e_universe
    naive.Explore.e_explored;
  let digest_set r =
    List.sort_uniq compare (List.map snd r.Explore.e_digests)
  in
  Alcotest.(check (list string))
    "identical final-state digest sets" (digest_set naive) (digest_set dpor);
  check_bool "dpor prunes at least 30% of the universe" true
    (float_of_int dpor.Explore.e_pruned
     >= 0.3 *. float_of_int dpor.Explore.e_universe);
  check_int "explored + pruned covers the universe" dpor.Explore.e_universe
    (dpor.Explore.e_explored + dpor.Explore.e_pruned)

(* --- the planted non-commuting pair is never pruned --- *)

let test_non_commuting_pair_explored () =
  let dpor = run_op ~depth:2 ctx Race.Ep_delete in
  let digest_of sched =
    match List.assoc_opt sched dpor.Explore.e_digests with
    | Some d -> d
    | None ->
        Alcotest.failf "schedule %s was pruned (must be explored)"
          (String.concat ";"
             (List.map (fun (p, n) -> Fmt.str "%d:%s" p n) sched))
  in
  (* Both orders of the racing pair must be explored... *)
  let d_sig_poll = digest_of [ (1, "signal_a"); (2, "poll_a") ] in
  let d_poll_sig = digest_of [ (1, "poll_a"); (2, "signal_a") ] in
  (* ...and they are genuinely order-sensitive: signal-then-poll consumes
     the word, poll-then-signal leaves it set. *)
  check_bool "the two orders reach different final states" true
    (d_sig_poll <> d_poll_sig)

(* --- multi-pause schedules reach only the sweep's states --- *)

(* Replay [op] preempting at every poll in [schedule] and restarting
   until it completes; the (poll, digest, measure) of every preempted
   exit, and the polls of the whole run. *)
let preempted_exits ~build ~sz op schedule =
  let env = Sel4.Boot.boot build in
  let d = Explore.setup env sz op in
  let k = env.Sel4.Boot.k in
  Sel4.Kernel.set_injection_hook k (Some (fun poll -> List.mem poll schedule));
  let rec go acc =
    Sel4.Kernel.force_run k d.Explore.d_initiator;
    match Sel4.Kernel.kernel_entry k d.Explore.d_event with
    | Sel4.Kernel.Preempted ->
        go
          (( Sel4.Kernel.preempt_polls k,
             Sel4.Digest.of_kernel k,
             d.Explore.d_measure () )
          :: acc)
    | Sel4.Kernel.Completed -> (List.rev acc, Sel4.Kernel.preempt_polls k)
    | Sel4.Kernel.Failed e -> Alcotest.failf "%s failed: %s" (Race.op_name op) e
  in
  let result = go [] in
  Sel4.Kernel.set_injection_hook k None;
  result

let test_pause_schedules_match_sweep () =
  let sz = Explore.sizes in
  let runs = ref 0 in
  List.iter
    (fun op ->
      List.iter
        (fun build ->
          let name =
            Race.op_name op ^ "/"
            ^ Sel4.Build.sched_name build.Sel4.Build.sched
          in
          let exits schedule =
            incr runs;
            preempted_exits ~build ~sz op schedule
          in
          let _, h = exits [] in
          let polls = List.init h (fun i -> i + 1) in
          (* The single-preemption sweep: the state at each poll. *)
          let at =
            List.map
              (fun p ->
                match exits [ p ] with
                | [ (q, dg, m) ], _ when q = p -> (p, (dg, m))
                | _ -> Alcotest.failf "%s: sweep at poll %d" name p)
              polls
          in
          let check_schedule schedule =
            let seen, _ = exits schedule in
            check_int_list (name ^ " preempted where scheduled") schedule
              (List.map (fun (p, _, _) -> p) seen);
            List.iter
              (fun (p, dg, m) ->
                check_bool
                  (Fmt.str "%s poll %d state as in the sweep" name p)
                  true
                  (List.assoc p at = (dg, m)))
              seen;
            seen
          in
          let rec subsets n = function
            | _ when n = 0 -> [ [] ]
            | [] -> []
            | x :: rest ->
                List.map (List.cons x) (subsets (n - 1) rest) @ subsets n rest
          in
          List.iter
            (fun s -> ignore (check_schedule s))
            (subsets 2 polls @ subsets 3 polls);
          (* Preempting everywhere, the measure strictly decreases. *)
          let measures = List.map (fun (_, _, m) -> m) (check_schedule polls) in
          List.iteri
            (fun i m ->
              if i > 0 then
                check_bool
                  (Fmt.str "%s measure decreases at exit %d" name (i + 1))
                  true
                  (m < List.nth measures (i - 1)))
            measures)
        (Explore.variants ~base:ctx.Sel4_rt.Analysis_ctx.build op))
    Race.ops;
  check_bool "covers every 2- and 3-pause schedule" true (!runs > 500)

(* --- determinism and the campaign entry point --- *)

let test_deterministic () =
  let r1 = Explore.run ctx in
  let r2 = Explore.run ctx in
  check_bool "identical reports" true (r1 = r2)

let test_exhaustive_ep_delete () =
  let o = run_op ~depth:2 ctx Race.Ep_delete in
  check_bool "no failures" true (o.Explore.e_failures = []);
  check_bool "covers preemption points" true (o.Explore.e_points > 0);
  (* 3 uninterrupted baselines + (each point alone + all at once) x 3
     variants, before DPOR. *)
  check_bool "sweep ran per variant" true
    (o.Explore.e_runs >= 3 * (o.Explore.e_points + 2));
  check_int "preempt-everywhere restarts at every point" o.Explore.e_points
    o.Explore.e_max_restarts

let test_all_ops () =
  let r = Explore.run ctx in
  check_bool "all four ops pass" true (Explore.ok r);
  Alcotest.(check (list string))
    "four ops" (List.map Race.op_name Race.ops)
    (List.map (fun o -> Race.op_name o.Explore.e_op) r.Explore.x_ops);
  List.iter
    (fun o ->
      let name = Race.op_name o.Explore.e_op in
      check_bool (name ^ " polls preemption points") true (o.Explore.e_points > 0);
      check_bool (name ^ " forced restarts") true (o.Explore.e_max_restarts > 0))
    r.Explore.x_ops

let test_smoke_campaign () =
  let r = Explore.run ctx in
  check_bool "campaign is clean" true (Explore.ok r);
  check_int "runs add up" r.Explore.x_total_runs
    (List.fold_left (fun a o -> a + o.Explore.e_runs) 0 r.Explore.x_ops);
  List.iter
    (fun s ->
      check_int "counts add up" s.Explore.e_universe
        (s.Explore.e_explored + s.Explore.e_pruned);
      check_bool "deduped within explored" true
        (s.Explore.e_deduped <= s.Explore.e_explored);
      if s.Explore.e_alphabet = [] then
        check_int "no actions, no DPOR" 0 s.Explore.e_universe
      else begin
        check_bool "explored some schedules" true (s.Explore.e_explored > 0);
        check_bool "pruned some schedules" true (s.Explore.e_pruned > 0);
        check_bool "deduped some states" true (s.Explore.e_deduped > 0)
      end)
    r.Explore.x_ops;
  (* A depth below 1 has an empty universe: rejected, not a vacuous ok. *)
  List.iter
    (fun depth ->
      match Explore.run ~depth ctx with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "depth %d accepted" depth)
    [ 0; -1 ]

let test_badged_abort_requeue () =
  (* The cross-op interference scenario: a client re-queues on the
     endpoint mid-abort.  Every schedule must satisfy the measure oracle
     (the scan bound was captured at start) and the differential oracle. *)
  let r = run_op ~depth:2 ctx Race.Badged_abort in
  check_bool "badged_abort scenario is clean" true (r.Explore.e_failures = []);
  check_bool "explored requeue schedules" true
    (List.exists
       (fun (sched, _) -> List.exists (fun (_, n) -> n = "requeue") sched)
       r.Explore.e_digests)

let test_failing_baseline () =
  (* A failing uninterrupted run is a recorded failure of the campaign,
     not an exception: nothing else runs for that operation. *)
  let planted s = if s = [] then Some "planted: reference broken" else None in
  let o = run_op ~planted ~depth:2 ctx Race.Ep_delete in
  (match o.Explore.e_failures with
  | [ f ] ->
      Alcotest.(check string) "planted verdict" "planted" f.Explore.x_variant;
      check_bool "on the empty schedule" true (f.Explore.x_schedule = [])
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
  check_int "no sweep" 0 o.Explore.e_points;
  check_int "no DPOR" 0 o.Explore.e_explored;
  let r =
    { Explore.x_depth = 2; x_ops = [ o ]; x_total_runs = 0 }
  in
  check_bool "the campaign fails" false (Explore.ok r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- shrinking --- *)

let test_shrink_minimal () =
  (* The failure needs 3 and 7 together; everything else is noise. *)
  let fails s = List.mem 3 s && List.mem 7 s in
  check_int_list "noise removed" [ 3; 7 ]
    (Explore.shrink ~fails [ 1; 3; 5; 7; 9 ]);
  check_int_list "already minimal" [ 2 ] (Explore.shrink ~fails:(List.mem 2) [ 2 ]);
  (* 1-minimality: removing any element of the result must not fail. *)
  let result = Explore.shrink ~fails [ 9; 7; 5; 3; 1 ] in
  check_bool "result still fails" true (fails result);
  List.iteri
    (fun i _ ->
      check_bool "dropping any element passes" false
        (fails (List.filteri (fun j _ -> j <> i) result)))
    result

let test_planted_failure_is_shrunk () =
  (* Plant a deterministic bug that needs at least two preemptions, so the
     single-preemption sweep stays green and only the preempt-everywhere
     schedule and DPOR's multi-action schedules hit it; the report must
     carry 1-minimal (two-element) schedules. *)
  let planted s =
    if List.length s >= 2 then Some "planted: double preemption mishandled"
    else None
  in
  let o = run_op ~planted ~depth:2 ctx Race.Ep_delete in
  check_bool "at least one failure" true (o.Explore.e_failures <> []);
  let everywhere = List.init o.Explore.e_points (fun i -> (i + 1, "pause")) in
  check_bool "preempt-everywhere schedule caught it" true
    (List.exists
       (fun f -> f.Explore.x_schedule = everywhere)
       o.Explore.e_failures);
  List.iter
    (fun (f : Explore.failure) ->
      check_bool "found by a multi-preemption schedule" true
        (List.length f.Explore.x_schedule >= 2);
      check_int "shrunk to the 1-minimal pair" 2
        (List.length f.Explore.x_min_schedule);
      Alcotest.(check string) "oracle verdict propagated" "planted"
        f.Explore.x_variant;
      check_bool "carries a timeline" true (f.Explore.x_timeline <> ""))
    o.Explore.e_failures

let test_json_envelope () =
  let r = Explore.run ctx in
  let j = Obs.Json.to_string (Explore.to_json r) in
  check_bool "campaign key" true (contains j "\"campaign\": \"explore\"");
  check_bool "ok key" true (contains j "\"ok\": true");
  check_bool "total_runs key" true (contains j "\"total_runs\"");
  check_bool "ops array" true (contains j "\"ops\"");
  check_bool "failures arrays" true (contains j "\"failures\": []")

let () =
  Alcotest.run "explore"
    [
      ( "static",
        [
          Alcotest.test_case "independent actions" `Quick
            test_independent_actions;
          Alcotest.test_case "universe counts" `Quick test_universe_counts;
          Alcotest.test_case "canonicity" `Quick test_canonical_counts;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "naive vs dpor digest sets (depth 3)" `Slow
            test_pruning_soundness_depth3;
          Alcotest.test_case "non-commuting pair is explored" `Slow
            test_non_commuting_pair_explored;
          Alcotest.test_case "multi-pause states match the sweep" `Slow
            test_pause_schedules_match_sweep;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Slow test_deterministic;
          Alcotest.test_case "exhaustive ep-delete sweep" `Quick
            test_exhaustive_ep_delete;
          Alcotest.test_case "all ops" `Quick test_all_ops;
          Alcotest.test_case "smoke campaign" `Slow test_smoke_campaign;
          Alcotest.test_case "badged-abort requeue" `Slow
            test_badged_abort_requeue;
          Alcotest.test_case "failing baseline is recorded" `Quick
            test_failing_baseline;
          Alcotest.test_case "json envelope" `Quick test_json_envelope;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "greedy shrink is 1-minimal" `Quick
            test_shrink_minimal;
          Alcotest.test_case "planted failure shrunk in report" `Quick
            test_planted_failure_is_shrunk;
        ] );
    ]
