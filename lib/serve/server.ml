(* The long-lived analysis server (see server.mli). *)

let queries = Obs.Metrics.counter "serve.queries"
let malformed = Obs.Metrics.counter "serve.malformed"
let latency = Obs.Metrics.histogram "serve.latency_s"

(* Requests parsed but not yet answered — across every connection. *)
let queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let pending = Atomic.make 0

let enqueue () =
  Obs.Metrics.set_gauge queue_depth
    (float_of_int (Atomic.fetch_and_add pending 1 + 1))

let dequeue () =
  Obs.Metrics.set_gauge queue_depth
    (float_of_int (Atomic.fetch_and_add pending (-1) - 1))

(* One query executes at a time: the analysis caches, the disk cache and
   the Domain pool are process-wide, and a single analyse already
   saturates the pool.  Connections pipeline; solves serialise. *)
let exec_mutex = Mutex.create ()

let handle_line line =
  Obs.Metrics.incr queries;
  match Json.parse line with
  | Error msg ->
      Obs.Metrics.incr malformed;
      (Envelope.error (Fmt.str "invalid JSON: %s" msg), false)
  | Ok v -> (
      match Query.of_json v with
      | Error msg ->
          Obs.Metrics.incr malformed;
          let id = Option.bind (Json.member "id" v) Json.to_string_opt in
          (Envelope.error ?id msg, false)
      | Ok (id, req) ->
          enqueue ();
          let t0 = Obs.Metrics.now_s () in
          let response, _status =
            Fun.protect ~finally:dequeue (fun () ->
                Mutex.protect exec_mutex (fun () -> Query.respond ?id req))
          in
          Obs.Metrics.observe latency (Obs.Metrics.now_s () -. t0);
          (response, true))

let serve_channels ic oc =
  let all_well_formed = ref true in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let response, well_formed = handle_line line in
         if not well_formed then all_well_formed := false;
         output_string oc response;
         flush oc
       end
     done
   with End_of_file -> ());
  !all_well_formed

let serve_socket path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  let rec accept_loop () =
    let fd, _peer = Unix.accept sock in
    let (_ : Thread.t) =
      Thread.create
        (fun fd ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          let (_ : bool) = serve_channels ic oc in
          (* Closing the out channel closes the shared descriptor. *)
          close_out_noerr oc)
        fd
    in
    accept_loop ()
  in
  accept_loop ()
