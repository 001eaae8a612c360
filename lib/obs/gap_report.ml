(* Bound-vs-observation gap reports: the analytic worst-case path
   (Bound_profile) aligned with the observed worst delivery window
   (Tail_report), per soak run.  Which functions does the bound pay for
   that the observed worst case never executed, and how much of the
   headroom do they explain? *)

type func_gap = { g_func : string; g_bound_cycles : int; g_executed : bool }

type t = {
  g_scenario : string;
  g_build : string;
  g_bound : int;
  g_observed_max : int;
  g_headroom : int;
  g_worst_sections : (string * int) list;
  g_funcs : func_gap list;
  g_unexecuted_cycles : int;
}

let make ~scenario ~build ~bound ~observed_max ~sections ~charged ~executed =
  let funcs =
    List.map
      (fun (f, cycles) ->
        { g_func = f; g_bound_cycles = cycles; g_executed = executed f })
      charged
  in
  {
    g_scenario = scenario;
    g_build = build;
    g_bound = bound;
    g_observed_max = observed_max;
    g_headroom = bound - observed_max;
    g_worst_sections = sections;
    g_funcs = funcs;
    g_unexecuted_cycles =
      List.fold_left
        (fun acc g -> if g.g_executed then acc else acc + g.g_bound_cycles)
        0 funcs;
  }

let to_json reports =
  let open Json in
  let func f =
    Obj
      [
        ("func", Str f.g_func); ("bound_cycles", int f.g_bound_cycles);
        ("executed", Bool f.g_executed);
      ]
  in
  list
    (fun g ->
      Obj
        [
          ("scenario", Str g.g_scenario); ("build", Str g.g_build);
          ("bound", int g.g_bound); ("observed_max", int g.g_observed_max);
          ("headroom", int g.g_headroom);
          ("unexecuted_cycles", int g.g_unexecuted_cycles);
          ( "worst_sections",
            Obj (List.map (fun (s, c) -> (s, int c)) g.g_worst_sections) );
          ("funcs", list func g.g_funcs);
        ])
    reports

let pp ppf g =
  Fmt.pf ppf "@[<v>%s/%s: bound %d, observed max %d, headroom %d (%.1f%%)@,"
    g.g_scenario g.g_build g.g_bound g.g_observed_max g.g_headroom
    (100.0 *. float_of_int g.g_headroom /. float_of_int (max 1 g.g_bound));
  Fmt.pf ppf "  bound charges by function:@,";
  List.iter
    (fun f ->
      Fmt.pf ppf "    %-12s %8d cycles  %s@," f.g_func f.g_bound_cycles
        (if f.g_executed then "executed in worst window"
         else "NOT executed in worst window"))
    g.g_funcs;
  Fmt.pf ppf
    "  %d of %d headroom cycles are blocks the worst window never ran@,"
    (min g.g_unexecuted_cycles g.g_headroom)
    g.g_headroom;
  if g.g_unexecuted_cycles > g.g_headroom then
    Fmt.pf ppf
      "  (unexecuted charge %d exceeds headroom: executed sections ran \
       faster than their worst case)@,"
      g.g_unexecuted_cycles;
  Fmt.pf ppf "@]"
