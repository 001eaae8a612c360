(** The unified machine-readable envelope.

    Every JSON document this repository emits — serve responses and
    the JSON output of the query-backed [sel4rt] subcommands
    ([analyse]/[race]/[explore]/[metrics] [--json],
    [explain --format json]) — is one envelope object:

    {v
    { "schema_version": 1,
      "id": <echoed request id, when one was given>,
      "status": "ok" | "fail" | "error",
      "elapsed_s": <wall-clock seconds spent producing the payload>,
      "payload": <command-specific JSON> }
    v}

    [status] is ["ok"] when the command ran and its gate (if any) passed,
    ["fail"] when it ran but a gate failed (an explore oracle, a
    sim latency bound, a non-exact decomposition: {!Query.status}), and
    ["error"] when the request itself was malformed or the command
    raised; an ["error"] payload is [{"error": <message>}].  [sel4rt]
    exits 0, 1 and 2 on the three.  [elapsed_s] is the only
    wall-clock-dependent field — payloads are deterministic for
    deterministic commands, which is what the warm-cache byte-identity
    gate checks. *)

type status = Ok | Fail | Error

val schema_version : int
(** 1. Bump when the envelope shape (not a payload) changes. *)

val status_to_string : status -> string
(** ["ok"], ["fail"], ["error"]. *)

val line : ?id:string -> status:status -> elapsed_s:float -> Json.t -> string
(** The envelope around a payload value ([elapsed_s] with 6 decimals),
    rendered by {!Json.to_compact} and newline-terminated: the serve
    protocol's framing, one response per line. *)

val wrap :
  ?id:string ->
  status:status ->
  elapsed_s:float ->
  payload:string ->
  unit ->
  string
(** {!line} for a payload held as JSON text.  The text is parsed first;
    a payload that fails to parse is embedded as an error payload
    instead, never emitted broken. *)

val error : ?id:string -> string -> string
(** {!line} of an ["error"] envelope around [{"error": msg}]. *)

val error_payload : string -> Json.t
(** [{"error": msg}]. *)
