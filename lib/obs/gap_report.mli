(** Bound-vs-observation alignment: where the analytic worst case and the
    observed worst delivery disagree, per (scenario, build) run.

    The bound charges cycles to source functions ({!Bound_profile});
    the flight recorder shows which kernel sections the observed worst
    delivery actually crossed ({!Tail_report}).  A gap report marks every
    function the bound pays for that the observed worst window never
    executed, and attributes the bound headroom accordingly. *)

type func_gap = {
  g_func : string;  (** source function charged by the bound *)
  g_bound_cycles : int;  (** cycles the bound charges it *)
  g_executed : bool;
      (** whether the observed worst window executed it (per the kernel
          section → function mapping supplied by the caller) *)
}

type t = {
  g_scenario : string;
  g_build : string;
  g_bound : int;  (** analytic bound, cycles *)
  g_observed_max : int;  (** worst observed latency, cycles *)
  g_headroom : int;  (** [g_bound - g_observed_max] *)
  g_worst_sections : (string * int) list;
      (** kernel-section attribution of the observed worst window *)
  g_funcs : func_gap list;  (** largest charge first *)
  g_unexecuted_cycles : int;
      (** bound cycles charged to functions the worst window never
          executed — the structural part of the headroom *)
}

val make :
  scenario:string ->
  build:string ->
  bound:int ->
  observed_max:int ->
  sections:(string * int) list ->
  charged:(string * int) list ->
  executed:(string -> bool) ->
  t
(** [charged] is per-function bound attribution
    ({!Bound_profile.by_function}); [executed f] decides whether the
    observed worst window executed function [f] (the caller owns the
    kernel-section → function mapping). *)

val to_json : t list -> Json.t
(** JSON array of per-run gap reports. *)

val pp : t Fmt.t
