(* Worst-delivery forensics: bounded flight-recorder captures of the
   worst-N interrupt deliveries per soak run, with per-section cycle
   attribution.  Pure data + rendering; lib/sim populates it by
   deterministic replay of the implicated shards. *)

type delivery = {
  d_scenario : string;
  d_build : string;
  d_rank : int;
  d_line : int;
  d_latency : int;
  d_bound : int;
  d_shard : int;
  d_entry : int;
  d_asserted_at : int;
  d_delivered_at : int;
  d_section : string;
  d_sections : (string * int) list;
  d_window : Trace.event list;
}

type t = { t_worst_n : int; t_deliveries : delivery list }

let stem d = Printf.sprintf "%s_%s_rank%d" d.d_scenario d.d_build d.d_rank

let chrome_traces ?cycles_per_us t =
  List.map
    (fun d -> (stem d, Trace.to_chrome_json ?cycles_per_us (Trace.of_events d.d_window)))
    t.t_deliveries

let to_json t =
  let open Json in
  let delivery d =
    Obj
      [
        ("scenario", Str d.d_scenario); ("build", Str d.d_build);
        ("rank", int d.d_rank); ("line", int d.d_line);
        ("latency", int d.d_latency); ("bound", int d.d_bound);
        ("shard", int d.d_shard); ("entry", int d.d_entry);
        ("asserted_at", int d.d_asserted_at);
        ("delivered_at", int d.d_delivered_at);
        ("section", Str d.d_section);
        ("sections", Obj (List.map (fun (s, c) -> (s, int c)) d.d_sections));
        ("window_events", int (List.length d.d_window));
      ]
  in
  Obj
    [
      ("worst_n", int t.t_worst_n);
      ("deliveries", list delivery t.t_deliveries);
    ]

let pp ppf t =
  Fmt.pf ppf "@[<v>worst-delivery flight recorder (worst %d per run):@,"
    t.t_worst_n;
  List.iter
    (fun d ->
      Fmt.pf ppf
        "@,%s/%s #%d: irq%d latency %d (bound %d, %.1f%%) — asserted in %s \
         [shard %d entry %d]@,"
        d.d_scenario d.d_build d.d_rank d.d_line d.d_latency d.d_bound
        (100.0 *. float_of_int d.d_latency /. float_of_int (max 1 d.d_bound))
        d.d_section d.d_shard d.d_entry;
      Fmt.pf ppf "  window [%d, %d] (%d events):" d.d_asserted_at
        d.d_delivered_at
        (List.length d.d_window);
      List.iter
        (fun (s, c) -> Fmt.pf ppf "@,    %-18s %6d cycles" s c)
        d.d_sections)
    t.t_deliveries;
  Fmt.pf ppf "@]"
