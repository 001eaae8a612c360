(* The unified query API (see query.mli). *)

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

(* Wire tokens, so a response's [target] is itself a valid request
   [target] (Kernel_model.entry_name renders display names). *)
let target_name = function
  | Kernel_entry -> "kernel_entry"
  | Entry Sel4_rt.Kernel_model.Syscall -> "syscall"
  | Entry Sel4_rt.Kernel_model.Interrupt -> "interrupt"
  | Entry Sel4_rt.Kernel_model.Page_fault -> "fault"
  | Entry Sel4_rt.Kernel_model.Undefined_instruction -> "undefined"

let target_of_string = function
  | "kernel_entry" | "response" -> Result.Ok Kernel_entry
  | "syscall" -> Result.Ok (Entry Sel4_rt.Kernel_model.Syscall)
  | "interrupt" | "irq" -> Result.Ok (Entry Sel4_rt.Kernel_model.Interrupt)
  | "fault" | "pagefault" -> Result.Ok (Entry Sel4_rt.Kernel_model.Page_fault)
  | "undefined" | "undef" ->
      Result.Ok (Entry Sel4_rt.Kernel_model.Undefined_instruction)
  | s -> Result.Error (Fmt.str "unknown target %S" s)

let build_of_string = function
  | "improved" | "after" -> Result.Ok Sel4.Build.improved
  | "original" | "before" -> Result.Ok Sel4.Build.original
  | "benno" ->
      Result.Ok { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Benno }
  | "lazy" ->
      Result.Ok { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Lazy }
  | s -> Result.Error (Fmt.str "unknown build %S" s)

let build_name b =
  if b = Sel4.Build.improved then "improved"
  else if b = Sel4.Build.original then "original"
  else if b = { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Benno }
  then "benno"
  else if b = { Sel4.Build.improved with Sel4.Build.sched = Sel4.Build.Lazy }
  then "lazy"
  else Fmt.str "%a" Sel4.Build.pp b

(* Analyse payloads deliberately carry no wall-clock field: a disk-cache
   hit must produce byte-identical output to the cold solve it replays
   (the envelope's [elapsed_s] is the only timing).  [lp_solves] and
   [bb_nodes] are deterministic solver statistics, persisted with the
   result, so they survive the round trip unchanged. *)
let analyse_payload ~target ~build ~l2 ~pin =
  let open Json in
  let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
  let bound wcet =
    [
      ("target", Str (target_name target)); ("build", Str (build_name build));
      ("l2", Bool l2); ("pin", Bool pin); ("wcet_cycles", int wcet);
      ( "wcet_us",
        Fixed (3, Hw.Config.cycles_to_us ctx.Sel4_rt.Analysis_ctx.config wcet)
      );
    ]
  in
  match target with
  | Kernel_entry ->
      Obj (bound (Sel4_rt.Response_time.interrupt_response_bound ctx))
  | Entry e ->
      let r = Sel4_rt.Response_time.computed ctx e in
      Obj
        (bound r.Wcet.Ipet.wcet
        @ [
            ( "ilp",
              Obj
                [
                  ("vars", int r.Wcet.Ipet.ilp_vars);
                  ("constraints", int r.Wcet.Ipet.ilp_constraints);
                  ("bb_nodes", int r.Wcet.Ipet.bb_nodes);
                  ("lp_solves", int r.Wcet.Ipet.lp_solves);
                ] );
          ])

let gate ok = if ok then Envelope.Ok else Envelope.Fail

let run_exn = function
  | Analyse { target; build; l2; pin } ->
      (Envelope.Ok, analyse_payload ~target ~build ~l2 ~pin)
  | Explain { target; build; l2; pin } ->
      let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
      let profile =
        match target with
        | Kernel_entry -> Sel4_rt.Response_time.interrupt_response_profile ctx
        | Entry e -> Sel4_rt.Response_time.profile ctx e
      in
      ( gate (Obs.Bound_profile.exact profile),
        Obs.Bound_profile.to_json profile )
  | Metrics -> (Envelope.Ok, Obs.Metrics.to_json (Obs.Metrics.snapshot ()))
  | Sim { smoke; seed; entries; scenarios } ->
      let only = match scenarios with [] -> None | l -> Some l in
      let report, _throughput =
        Sim.run_campaign_timed ~smoke ~seed ?entries ?only ()
      in
      (* The throughput is wall-clock and stays out of the payload, so
         responses are deterministic. *)
      (gate report.Sim.rp_ok, Sim.report_to_json report)
  | Smp { smoke; seed; entries; cores; shielded; compare } ->
      if compare then begin
        let shielded_rep, spread_rep, cmp =
          Smp.Soak.run_compare ~seed ?entries ~smoke ~cores ()
        in
        ( gate
            (shielded_rep.Smp.Soak.rp_ok && spread_rep.Smp.Soak.rp_ok
           && cmp.Smp.Soak.cmp_tail_lower),
          Smp.Soak.comparison_to_json cmp )
      end
      else begin
        let policy =
          if shielded then Smp.Topology.Shielded else Smp.Topology.Spread
        in
        let report = Smp.Soak.run ~seed ?entries ~smoke ~cores ~policy () in
        (gate report.Smp.Soak.rp_ok, Smp.Soak.report_to_json report)
      end
  | Race { smoke } ->
      let report = Race.audit ~smoke Sel4_rt.Analysis_ctx.default in
      (gate (Race.audit_ok report), Race.to_json report)
  | Explore { smoke; depth } ->
      let report = Explore.run ~smoke ?depth Sel4_rt.Analysis_ctx.default in
      (gate (Explore.ok report), Explore.to_json report)

let run_json req =
  match run_exn req with
  | outcome -> outcome
  | exception e ->
      (Envelope.Error, Envelope.error_payload (Printexc.to_string e))

let run req =
  let status, payload = run_json req in
  { status; payload = Json.to_compact payload }

let respond ?id req =
  let t0 = Unix.gettimeofday () in
  let status, payload = run_json req in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (Envelope.line ?id ~status ~elapsed_s payload, status)

(* --- wire parsing --- *)

let ( let* ) = Result.bind

let of_json v =
  match v with
  | Json.Obj _ -> (
      let id = Option.bind (Json.member "id" v) Json.to_string_opt in
      let field name to_v kind default =
        match Json.member name v with
        | None -> Result.Ok default
        | Some j -> (
            match to_v j with
            | Some x -> Result.Ok x
            | None -> Result.Error (Fmt.str "%S must be %s" name kind))
      in
      let opt_field name to_v kind =
        field name (fun j -> Option.map Option.some (to_v j)) kind None
      in
      let bool_field name default =
        field name Json.to_bool_opt "a boolean" default
      in
      let int_field name default =
        field name Json.to_int_opt "an integer" default
      in
      let entries_field () =
        match opt_field "entries" Json.to_int_opt "an integer" with
        | Result.Ok (Some n) when n < 1 ->
            Result.Error "\"entries\" must be >= 1"
        | r -> r
      in
      let parsed name of_string default =
        let* s = field name Json.to_string_opt "a string" default in
        of_string s
      in
      let analysis_params () =
        let* target = parsed "target" target_of_string "kernel_entry" in
        let* build = parsed "build" build_of_string "improved" in
        let* l2 = bool_field "l2" false in
        let* pin = bool_field "pin" false in
        Result.Ok (target, build, l2, pin)
      in
      let* kind =
        match Json.member "query" v with
        | None -> Result.Error "missing \"query\""
        | Some j -> (
            match Json.to_string_opt j with
            | Some s -> Result.Ok s
            | None -> Result.Error "\"query\" must be a string")
      in
      let* req =
        match kind with
        | "analyse" | "analyze" ->
            let* target, build, l2, pin = analysis_params () in
            Result.Ok (Analyse { target; build; l2; pin })
        | "explain" ->
            let* target, build, l2, pin = analysis_params () in
            Result.Ok (Explain { target; build; l2; pin })
        | "metrics" -> Result.Ok Metrics
        | "sim" ->
            let* smoke = bool_field "smoke" true in
            let* seed = int_field "seed" 42 in
            let* entries = entries_field () in
            let* scenarios =
              let* items =
                field "scenarios" Json.to_list_opt "an array" []
              in
              List.fold_left
                (fun acc j ->
                  let* acc = acc in
                  match Json.to_string_opt j with
                  | Some s -> Result.Ok (s :: acc)
                  | None ->
                      Result.Error "\"scenarios\" must be an array of strings")
                (Result.Ok []) items
              |> Result.map List.rev
            in
            Result.Ok (Sim { smoke; seed; entries; scenarios })
        | "smp" ->
            let* smoke = bool_field "smoke" true in
            let* seed = int_field "seed" 42 in
            let* entries = entries_field () in
            let* cores = int_field "cores" 4 in
            let* shielded = bool_field "shielded" false in
            let* compare = bool_field "compare" false in
            if cores < 1 then Result.Error "\"cores\" must be >= 1"
            else
              Result.Ok (Smp { smoke; seed; entries; cores; shielded; compare })
        | "race" ->
            let* smoke = bool_field "smoke" true in
            Result.Ok (Race { smoke })
        | "explore" ->
            let* smoke = bool_field "smoke" true in
            let* depth = opt_field "depth" Json.to_int_opt "an integer" in
            Result.Ok (Explore { smoke; depth })
        | s -> Result.Error (Fmt.str "unknown query %S" s)
      in
      Result.Ok (id, req))
  | _ -> Result.Error "request must be a JSON object"
