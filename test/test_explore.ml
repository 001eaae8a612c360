(* Tests for the DPOR schedule explorer.  The load-bearing one is
   pruning soundness: on the depth-3 ep-delete scenario, naive full
   enumeration and DPOR exploration must reach exactly the same set of
   final-state digests while DPOR prunes a substantial fraction of the
   universe.  The planted non-commuting pair (signal_a/poll_a on the same
   notification word) checks the pruner keeps genuinely order-sensitive
   schedules: both orders must be explored, and must reach different
   final states. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ctx = Sel4_rt.Analysis_ctx.default

(* --- the static classification feeding the pruner --- *)

let test_independent_actions () =
  let alphabet = Explore.actions_for Inject.Ep_delete in
  let indep = Explore.independent_actions Inject.Ep_delete alphabet in
  check_bool "pause is independent" true (List.mem "pause" indep);
  check_bool "signal_b is independent" true (List.mem "signal_b" indep);
  (* The planted non-commuting pair must be classified as decisions. *)
  check_bool "signal_a is a decision" false (List.mem "signal_a" indep);
  check_bool "poll_a is a decision" false (List.mem "poll_a" indep);
  let ab = Explore.actions_for Inject.Badged_abort in
  let ab_indep = Explore.independent_actions Inject.Badged_abort ab in
  check_bool "requeue conflicts with the abort" false
    (List.mem "requeue" ab_indep)

let test_universe_counts () =
  let alphabet = Explore.actions_for Inject.Ep_delete in
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
  let alphabet = Explore.actions_for Inject.Ep_delete in
  let indep = Explore.independent_actions Inject.Ep_delete alphabet in
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
  let naive, _ =
    Explore.run_scenario ~naive:true ~depth:3 ctx Inject.Ep_delete
  in
  let dpor, _ = Explore.run_scenario ~depth:3 ctx Inject.Ep_delete in
  check_bool "naive run is clean" true (naive.Explore.e_failures = []);
  check_bool "dpor run is clean" true (dpor.Explore.e_failures = []);
  check_int "naive explores the whole universe" naive.Explore.e_universe
    naive.Explore.e_explored;
  let digest_set r =
    List.sort_uniq compare (List.map snd r.Explore.e_runs)
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
  let dpor, _ = Explore.run_scenario ~depth:2 ctx Inject.Ep_delete in
  let digest_of sched =
    match List.assoc_opt sched dpor.Explore.e_runs with
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

(* --- determinism and the campaign entry point --- *)

let test_deterministic () =
  let r1, n1 = Explore.run_scenario ~depth:2 ctx Inject.Ep_delete in
  let r2, n2 = Explore.run_scenario ~depth:2 ctx Inject.Ep_delete in
  check_bool "identical reports" true (r1 = r2);
  check_int "identical run counts" n1 n2

let test_smoke_campaign () =
  let r = Explore.run ~smoke:true ctx in
  check_bool "smoke campaign is clean" true (Explore.ok r);
  check_int "smoke covers ep_delete only" 1 (List.length r.Explore.x_scens);
  List.iter
    (fun s ->
      check_bool "explored some schedules" true (s.Explore.e_explored > 0);
      check_bool "pruned some schedules" true (s.Explore.e_pruned > 0);
      check_bool "deduped some states" true (s.Explore.e_deduped > 0);
      check_bool "deduped within explored" true
        (s.Explore.e_deduped <= s.Explore.e_explored);
      check_int "counts add up" s.Explore.e_universe
        (s.Explore.e_explored + s.Explore.e_pruned))
    r.Explore.x_scens;
  (* A depth below 1 has an empty universe: rejected, not a vacuous ok. *)
  List.iter
    (fun depth ->
      match Explore.run ~smoke:true ~depth ctx with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "depth %d accepted" depth)
    [ 0; -1 ]

let test_badged_abort_requeue () =
  (* The cross-op interference scenario: a client re-queues on the
     endpoint mid-abort.  Every schedule must satisfy the measure oracle
     (the scan bound was captured at start) and the differential oracle. *)
  let r, _ = Explore.run_scenario ~depth:2 ctx Inject.Badged_abort in
  check_bool "badged_abort scenario is clean" true (r.Explore.e_failures = []);
  check_bool "explored requeue schedules" true
    (List.exists
       (fun (sched, _) -> List.exists (fun (_, n) -> n = "requeue") sched)
       r.Explore.e_runs)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_json_envelope () =
  let r = Explore.run ~smoke:true ctx in
  let j = Obs.Json.to_string (Explore.to_json r) in
  (* The envelope keys shared with Inject.to_json. *)
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
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Slow test_deterministic;
          Alcotest.test_case "smoke campaign" `Slow test_smoke_campaign;
          Alcotest.test_case "badged-abort requeue" `Slow
            test_badged_abort_requeue;
          Alcotest.test_case "json envelope" `Quick test_json_envelope;
        ] );
    ]
