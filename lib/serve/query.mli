(** The unified query API.

    One typed request variant covers every analysis the toolkit exposes
    machine-readably — WCET bounds, bound decomposition, the soak
    campaigns (single-core and SMP), the interference audit, the
    preemption-schedule campaign, and the metrics registry.  [sel4rt]'s [--json] paths and
    the [serve] protocol are both thin clients of {!respond}: same
    request type, same payload bytes, same envelope.

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
    asked).

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
    }
  | Smp of {
      smoke : bool;
      seed : int;
      entries : int option;
      cores : int;
      shielded : bool;
      compare : bool;
    }
  | Race of { smoke : bool }
  | Explore of { smoke : bool; depth : int option }

type outcome = { status : Envelope.status; payload : string }

val run : request -> outcome
(** Execute the request; [payload] is the compact JSON text of the
    payload value.  Never raises: an exception becomes an [Error]-status
    outcome with an [{"error": ...}] payload — as does a well-formed
    request that would run nothing: an unknown [sim] scenario name or an
    [explore] depth below 1.  [Fail]
    means the command ran but its gate failed (an oracle violation, a
    latency over bound, a non-exact decomposition). *)

val respond : ?id:string -> request -> string * Envelope.status
(** {!run} wrapped in the one-line envelope (trailing newline included),
    with the wall-clock [elapsed_s] measured around the run.  The
    payload value is wrapped as built: it is printed once and never
    parsed back.  The status
    is also returned so CLI clients can turn [Fail]/[Error] into a
    non-zero exit. *)

val of_json : Json.t -> (string option * request, string) result
(** Parse a wire request: [Ok (id, request)] or [Error message] for an
    unknown query kind, a bad parameter (including [entries] or [cores]
    below 1), or a non-object. *)

val target_name : target -> string
val target_of_string : string -> (target, string) result
val build_of_string : string -> (Sel4.Build.t, string) result
val build_name : Sel4.Build.t -> string
