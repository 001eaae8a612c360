(* On-disk content-addressed analysis cache (see disk_cache.mli). *)

(* Bumped whenever [Wcet.Ipet.persisted] or the key text changes shape:
   [Marshal] is untyped, so an old blob must never be read as the new
   record. *)
let format_version = 2
let magic = "sel4rt-cache"
let suffix = ".an"
let tmp_suffix = ".tmp"

let hits = Obs.Metrics.counter "serve.cache.hits"
let misses = Obs.Metrics.counter "serve.cache.misses"
let stores = Obs.Metrics.counter "serve.cache.stores"
let errors = Obs.Metrics.counter "serve.cache.errors"
let evictions = Obs.Metrics.counter "serve.cache.evictions"
let bytes_gauge = Obs.Metrics.gauge "serve.cache.bytes"

type stats = {
  dc_hits : int;
  dc_misses : int;
  dc_stores : int;
  dc_errors : int;
  dc_evictions : int;
}

let stats () =
  {
    dc_hits = Obs.Metrics.value hits;
    dc_misses = Obs.Metrics.value misses;
    dc_stores = Obs.Metrics.value stores;
    dc_errors = Obs.Metrics.value errors;
    dc_evictions = Obs.Metrics.value evictions;
  }

let the_dir =
  ref
    (match Sys.getenv_opt "SEL4RT_CACHE_DIR" with
    | Some d when String.trim d <> "" -> d
    | _ -> "_cache")

let dir () = !the_dir
let set_dir d = the_dir := d

let max_bytes () =
  match
    Option.bind
      (Sys.getenv_opt "SEL4RT_CACHE_MAX_BYTES")
      (fun s -> int_of_string_opt (String.trim s))
  with
  | Some n when n > 0 -> n
  | _ -> 256 * 1024 * 1024

let path_of_key key = Filename.concat !the_dir (Digest.to_hex (Digest.string key) ^ suffix)

(* Entries only; temp files (their own suffix, so another process's
   in-flight write is never listed) and anything else in the directory
   are not the cache's to manage. *)
let entries () =
  match Sys.readdir !the_dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n suffix)
      |> List.map (fun n -> Filename.concat !the_dir n)

(* LRU eviction by mtime.  Hits touch their entry, so mtime order is
   recency-of-use order across processes sharing the directory. *)
let evict_to_cap () =
  let cap = max_bytes () in
  let sized =
    List.filter_map
      (fun p ->
        match Unix.stat p with
        | { Unix.st_size; st_mtime; _ } -> Some (p, st_size, st_mtime)
        | exception Unix.Unix_error _ -> None)
      (entries ())
  in
  let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 sized in
  Obs.Metrics.set_gauge bytes_gauge (float_of_int total);
  if total > cap then begin
    let by_age =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) sized
    in
    let remaining = ref total in
    List.iter
      (fun (p, sz, _) ->
        if !remaining > cap then begin
          (try Sys.remove p with Sys_error _ -> ());
          remaining := !remaining - sz;
          Obs.Metrics.incr evictions
        end)
      by_age;
    Obs.Metrics.set_gauge bytes_gauge (float_of_int !remaining)
  end

let read_exactly ic len =
  let b = Bytes.create len in
  really_input ic b 0 len;
  Bytes.unsafe_to_string b

let load ?(version = format_version) ~key () =
  let path = path_of_key key in
  match open_in_bin path with
  | exception Sys_error _ ->
      Obs.Metrics.incr misses;
      None
  | ic -> (
      let parse () =
        let header = input_line ic in
        match String.split_on_char ' ' header with
        | [ m; v; klen; blen; bmd5 ]
          when m = magic && int_of_string v = version ->
            let klen = int_of_string klen and blen = int_of_string blen in
            let stored_key = read_exactly ic klen in
            if stored_key <> key then None
            else begin
              let blob = read_exactly ic blen in
              if Digest.to_hex (Digest.string blob) <> bmd5 then
                failwith "blob digest mismatch"
              else
                Some (Marshal.from_string blob 0 : Wcet.Ipet.persisted)
            end
        | [ m; _; _; _; _ ] when m = magic ->
            (* A different format version: stale by definition, silently
               invalidated (counted as a miss, not an error). *)
            None
        | _ -> failwith "bad header"
      in
      match parse () with
      | Some v ->
          close_in_noerr ic;
          Obs.Metrics.incr hits;
          (* Touch for LRU: best-effort, shared directories may deny it. *)
          (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
          Some v
      | None ->
          close_in_noerr ic;
          Obs.Metrics.incr misses;
          None
      | exception _ ->
          (* Truncated, corrupted or unreadable: drop the entry so the
             recompute's store replaces it, and count the incident. *)
          close_in_noerr ic;
          Obs.Metrics.incr errors;
          Obs.Metrics.incr misses;
          (try Sys.remove path with Sys_error _ -> ());
          None)

let store ?(version = format_version) ~key payload =
  try
    if not (Sys.file_exists !the_dir) then Unix.mkdir !the_dir 0o755;
    let blob = Marshal.to_string (payload : Wcet.Ipet.persisted) [] in
    let tmp = Filename.temp_file ~temp_dir:!the_dir "tmp-" tmp_suffix in
    (try
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           Printf.fprintf oc "%s %d %d %d %s\n" magic version
             (String.length key) (String.length blob)
             (Digest.to_hex (Digest.string blob));
           output_string oc key;
           output_string oc blob;
           close_out oc);
       (* Atomic on POSIX: readers see the old entry or the new one, never
          a torn write. *)
       Sys.rename tmp (path_of_key key)
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Obs.Metrics.incr stores;
    evict_to_cap ()
  with Sys_error _ | Unix.Unix_error _ ->
    (* A full or read-only filesystem degrades the cache, not the run. *)
    Obs.Metrics.incr errors

let clear () =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (entries ());
  Obs.Metrics.set_gauge bytes_gauge 0.0

let disabled () =
  match Sys.getenv_opt "SEL4RT_NO_DISK_CACHE" with
  | Some s when String.trim s <> "" -> true
  | _ -> false

let install () =
  if not (disabled ()) then
    Sel4_rt.Analysis_cache.set_persist
      (Some
         {
           Sel4_rt.Analysis_cache.p_load = (fun key -> load ~key ());
           p_store = (fun key v -> store ~key v);
         })

let uninstall () = Sel4_rt.Analysis_cache.set_persist None
