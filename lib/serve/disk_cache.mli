(** On-disk content-addressed analysis cache.

    One file per analysis result under {!dir} (default [_cache/],
    overridable with [SEL4RT_CACHE_DIR] or {!set_dir}), named by the MD5
    of the canonical key text that {!Sel4_rt.Analysis_cache} renders for
    the full analysis input (build, entry, params, hardware config, pins,
    constraint variant, forced counts).  Entry layout:

    {v
    sel4rt-cache <format version> <key length> <blob length> <blob md5>\n
    <canonical key text>
    <Marshal blob of Wcet.Ipet.persisted>
    v}

    Writes go to a unique temporary file ([tmp-*.tmp], never listed as
    an entry) in the same directory followed by an atomic [rename], so
    concurrent writers (domains or processes) can race on one key and
    readers still only ever observe complete entries.  A write or
    [rename] that fails removes its temporary file.  Reads verify the format version, the full key text (hash
    collisions degrade to misses, never wrong results) and the blob
    digest; any mismatch, truncation or unreadable file counts as a miss
    — corruption can cost a recompute, never a crash or a wrong bound.

    The store is size-capped ([SEL4RT_CACHE_MAX_BYTES], default 256 MiB):
    after a write that pushes the total over the cap, the
    least-recently-used entries (by mtime; hits touch their entry) are
    evicted until the store fits.

    Counters land in the metrics registry under [serve.cache.*]:
    [hits], [misses], [stores], [errors], [evictions], and the
    [serve.cache.bytes] gauge. *)

val dir : unit -> string
val set_dir : string -> unit

val install : unit -> unit
(** Route {!Sel4_rt.Analysis_cache} misses through this store
    ({!Sel4_rt.Analysis_cache.set_persist}).  No-op when
    [SEL4RT_NO_DISK_CACHE] is set to a non-empty value.  The directory is
    created lazily on the first store. *)

val uninstall : unit -> unit

val load : ?version:int -> key:string -> unit -> Wcet.Ipet.persisted option
(** [None] on miss, version mismatch, key mismatch or corruption
    (corrupt entries are deleted).  [version] defaults to the current
    format version; tests override it to exercise invalidation. *)

val store : ?version:int -> key:string -> Wcet.Ipet.persisted -> unit
(** Atomic write-and-rename, then eviction down to the size cap.  I/O
    errors are counted and swallowed — a read-only or full filesystem
    degrades the cache, never the analysis. *)

val clear : unit -> unit
(** Remove every cache entry (other files are left alone). *)

type stats = {
  dc_hits : int;
  dc_misses : int;
  dc_stores : int;
  dc_errors : int;
  dc_evictions : int;
}

val stats : unit -> stats
(** Current [serve.cache.*] counter values. *)
