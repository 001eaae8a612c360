(** The unified query API.

    One typed request variant covers every analysis the toolkit exposes
    machine-readably — WCET bounds, bound decomposition, the soak
    campaigns (single-core and SMP), the interference audit, the
    preemption-schedule campaign, and the metrics registry.  The
    [serve] protocol and every query-backed [sel4rt] subcommand are thin
    clients of {!exec}: same request, same gate ({!status}), same
    payload ({!to_json}) and text ({!pp}).

    Wire form (one JSON object per request):

    {v
    { "query": "analyse" | "explain" | "metrics" | "sim" | "smp"
             | "race" | "explore",
      "id": <optional string, echoed in the response envelope>,
      ...query-specific parameters... }
    v}

    [analyse]/[explain] take ["target"] (["kernel_entry"] — the full
    interrupt-response bound — or an entry point name; default
    ["kernel_entry"]), ["build"], ["l2"], ["pin"].  [sim] takes
    ["smoke"], ["seed"], ["entries"], ["scenarios"]; [smp] takes
    ["smoke"], ["seed"], ["entries"], ["cores"] (default 4),
    ["shielded"] and ["compare"] (run both affinity policies and gate
    on the shielded tail being strictly lower); [race] takes
    ["smoke"]; [explore] takes ["smoke"], ["depth"].  Booleans default
    to [false] except campaign ["smoke"] which defaults to [true] (a
    server should not run multi-minute campaigns unless explicitly
    asked).  [smp]'s [scenarios] and either campaign's [inv_every] are
    CLI-only: the wire runs every scenario at the default period.

    Analyse payloads carry no wall-clock fields — a warm-cache bound is
    byte-identical to the cold one, which is what the CI warm-cache gate
    diffs.  The envelope's [elapsed_s] is the only timing. *)

type target = Kernel_entry | Entry of Sel4_rt.Kernel_model.entry_point

type request =
  | Analyse of { target : target; build : Sel4.Build.t; l2 : bool; pin : bool }
  | Explain of { target : target; build : Sel4.Build.t; l2 : bool; pin : bool }
  | Metrics
  | Sim of {
      smoke : bool;
      seed : int;
      entries : int option;
      scenarios : string list;
      inv_every : int option;
    }
  | Smp of {
      smoke : bool;
      seed : int;
      entries : int option;
      cores : int;
      shielded : bool;
      compare : bool;
      scenarios : string list;
      inv_every : int option;
    }
  | Race of { smoke : bool }
  | Explore of { smoke : bool; depth : int option }

(** What a request produced: the report value its library builds. *)
type result =
  | Bound of {
      target : target;
      build : Sel4.Build.t;
      l2 : bool;
      pin : bool;
      config : Hw.Config.t;
      wcet : int;
      ipet : Wcet.Ipet.result option;  (** [None] for [Kernel_entry] *)
    }
  | Profile of Obs.Bound_profile.t
  | Snapshot of Obs.Metrics.snapshot
  | Soak of (Sim.report * Sim.throughput)
  | Smp_soak of Smp.Soak.report
  | Smp_compare of (Smp.Soak.report * Smp.Soak.report * Smp.Soak.comparison)
      (** shielded, spread, comparison *)
  | Race_audit of Race.audit_report
  | Explore_report of Explore.report

val validate : request -> (request, string) Stdlib.result
(** Reject [entries] or [cores] below 1 (a campaign that runs nothing),
    a negative [inv_every] (which would silently turn sampling off) and
    an SMP comparison given [scenarios] or [inv_every], which it cannot
    honour.  {!of_json} and {!exec} both apply it. *)

val exec : request -> (result, string) Stdlib.result
(** Never raises: a request {!validate} rejects, or whose command raises
    (an unknown scenario name, an [explore] depth below 1), is [Error]. *)

val status : result -> Envelope.status
(** The one gate: [Fail] for an oracle violation, a latency over bound,
    a non-exact decomposition or a shielded tail not below spread's. *)

val to_json : result -> Json.t
(** The payload a serve response carries. *)

val pp : result Fmt.t
(** The text report, newline-terminated. *)

type outcome = { status : Envelope.status; payload : string }

val run : request -> outcome
(** {!exec} then {!to_json}, compact; an [Error] becomes an
    [Error]-status outcome with an [{"error": ...}] payload. *)

val respond : ?id:string -> request -> string * Envelope.status
(** {!run} wrapped in the one-line envelope (trailing newline included),
    with the wall-clock [elapsed_s] measured around the run.  The
    payload value is wrapped as built: it is printed once and never
    parsed back.  The status is also returned so CLI clients can turn
    [Fail]/[Error] into a non-zero exit. *)

val of_json : Json.t -> (string option * request, string) Stdlib.result
(** Parse a wire request: [Ok (id, request)] or [Error message] for an
    unknown query kind, a bad parameter (see {!validate}), or a
    non-object. *)

val target_name : target -> string
val target_of_string : string -> (target, string) Stdlib.result
val build_of_string : string -> (Sel4.Build.t, string) Stdlib.result
val build_name : Sel4.Build.t -> string
