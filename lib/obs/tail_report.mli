(** Worst-delivery forensics: the flight-recorder output of a soak
    campaign.

    Each record is one of the worst-N interrupt deliveries of a
    (scenario, build) run, together with the full trace window
    surrounding it (armed → deliver: preemption polls, cache evictions,
    scheduler decisions) recaptured by deterministic replay, and the
    attribution of the window's cycles to kernel sections. *)

type delivery = {
  d_scenario : string;
  d_build : string;
  d_rank : int;  (** 0 = worst delivery of the run *)
  d_line : int;  (** IRQ line *)
  d_latency : int;  (** observed response latency, cycles *)
  d_bound : int;  (** the analytic bound the run was gated against *)
  d_shard : int;  (** shard index within the run *)
  d_entry : int;  (** entry index within the shard *)
  d_asserted_at : int;  (** shard-local cycle of assertion *)
  d_delivered_at : int;  (** shard-local cycle of delivery *)
  d_section : string;  (** kernel section in progress at assertion *)
  d_sections : (string * int) list;
      (** window cycles attributed per kernel section, largest first *)
  d_window : Trace.event list;
      (** recaptured trace window around the delivery *)
}

type t = {
  t_worst_n : int;  (** requested worst-N per run *)
  t_deliveries : delivery list;  (** grouped by run, rank order within *)
}

val chrome_traces : ?cycles_per_us:float -> t -> (string * Json.t) list
(** One Chrome trace_event JSON per captured delivery:
    [(file stem, json)]; stems are unique and filesystem-safe. *)

val to_json : t -> Json.t

val pp : t Fmt.t
