(** The long-lived analysis server.

    Protocol: newline-delimited JSON — one {!Query} wire request per
    line in, one envelope line out, in request order.  Blank lines are
    ignored.  A line that is not valid JSON, or is JSON but not a valid
    request, gets an ["error"]-status envelope (echoing the request's
    ["id"] when one could be extracted) and the connection keeps
    serving.

    All queries execute under one process-wide mutex: the analysis
    caches, the disk cache and the Domain pool are shared state, and an
    analysis query saturates the pool anyway — concurrency buys request
    pipelining, not parallel solves.  Per-query metrics land under
    [serve.*]: the [serve.queries] and [serve.malformed] counters and
    the [serve.latency_s] histogram. *)

val serve_channels : in_channel -> out_channel -> bool
(** Serve one connection until EOF.  Returns [true] iff every
    non-blank line parsed as a well-formed request ([fail]-status
    results are still well-formed; only malformed input clears it). *)

val serve_socket : string -> unit
(** Bind a Unix-domain socket at the given path (replacing any stale
    socket file) and serve each accepted connection on its own thread,
    forever.  Queries from concurrent connections are serialised by the
    execution mutex. *)
