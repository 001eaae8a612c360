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
  | Race
  | Explore of { depth : int option }

type result =
  | Bound of {
      target : target;
      build : Sel4.Build.t;
      l2 : bool;
      pin : bool;
      config : Hw.Config.t;
      wcet : int;
      ipet : Wcet.Ipet.result option;
    }
  | Profile of Obs.Bound_profile.t
  | Snapshot of Obs.Metrics.snapshot
  | Soak of (Sim.report * Sim.throughput)
  | Smp_soak of Smp.Soak.report
  | Smp_compare of (Smp.Soak.report * Smp.Soak.report * Smp.Soak.comparison)
  | Race_audit of Race.audit_report
  | Explore_report of Explore.report

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
  else if b = { Sel4.Build.improved with Sel4.Build.sched = b.Sel4.Build.sched }
  then Sel4.Build.sched_name b.sched
  else Fmt.str "%a" Sel4.Build.pp b

(* Every scenario has at most 6 tenants and device lines 1-5, so cores
   past 8 are parked; the cap stops one request sizing per-core arrays at
   will. *)
let max_cores = 64

(* The full single-core campaign's entries per run: a wire request may
   not hold the exec mutex for longer than that campaign does.  The CLI
   keeps larger counts (the profiling recipe runs a million). *)
let max_wire_entries = Sim.full_entries

let ( let* ) = Result.bind

(* [Error] naming [name] when the value lies outside [lo, hi]. *)
let in_range ?(hi = max_int) lo name = function
  | Some n when n < lo -> Result.Error (Fmt.str "%S must be >= %d" name lo)
  | Some n when n > hi -> Result.Error (Fmt.str "%S must be <= %d" name hi)
  | _ -> Result.Ok ()

let validate req =
  let campaign entries inv_every =
    let* () = in_range 1 "entries" entries in
    in_range 0 "inv_every" inv_every
  in
  let* () =
    match req with
    | Sim { entries; inv_every; _ } -> campaign entries inv_every
    | Smp { entries; cores; shielded; compare; scenarios; inv_every; _ } ->
        if compare && (scenarios <> [] || inv_every <> None) then
          Result.Error "compare takes neither scenarios nor inv_every"
        else
          let* () = campaign entries inv_every in
          let* () = in_range 1 ~hi:max_cores "cores" (Some cores) in
          if shielded && (cores < 2 || compare) then
            Result.Error "shielded needs cores >= 2 and no compare"
          else if compare && cores < 2 then
            Result.Error "compare needs cores >= 2"
          else Result.Ok ()
    | Analyse _ | Explain _ | Metrics | Race | Explore _ -> Result.Ok ()
  in
  Result.Ok req

let only = function [] -> None | l -> Some l

let exec_exn = function
  | Analyse { target; build; l2; pin } ->
      let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
      let ipet, wcet =
        match target with
        | Kernel_entry ->
            (None, Sel4_rt.Response_time.interrupt_response_bound ctx)
        | Entry e ->
            let r = Sel4_rt.Response_time.computed ctx e in
            (Some r, r.Wcet.Ipet.wcet)
      in
      let config = ctx.Sel4_rt.Analysis_ctx.config in
      Bound { target; build; l2; pin; config; wcet; ipet }
  | Explain { target; build; l2; pin } ->
      let ctx = Sel4_rt.Pinning.context ~l2 ~pin build in
      Profile
        (match target with
        | Kernel_entry -> Sel4_rt.Response_time.interrupt_response_profile ctx
        | Entry e -> Sel4_rt.Response_time.profile ctx e)
  | Metrics -> Snapshot (Obs.Metrics.snapshot ())
  | Sim { smoke; seed; entries; scenarios; inv_every } ->
      Soak
        (Sim.run_campaign_timed ~smoke ~seed ?entries ?only:(only scenarios)
           ?inv_every ())
  | Smp { smoke; seed; entries; cores; shielded; compare; scenarios; inv_every }
    ->
      if compare then
        Smp_compare (Smp.Soak.run_compare ~seed ?entries ~smoke ~cores ())
      else
        let policy =
          if shielded then Smp.Topology.Shielded else Smp.Topology.Spread
        in
        Smp_soak
          (Smp.Soak.run ~seed ?entries ~smoke ?inv_every ?only:(only scenarios)
             ~cores ~policy ())
  | Race -> Race_audit (Explore.audit Sel4_rt.Analysis_ctx.default)
  | Explore { depth } ->
      Explore_report (Explore.run ?depth Sel4_rt.Analysis_ctx.default)

let exec req =
  Result.bind (validate req) (fun req ->
      match exec_exn req with
      | r -> Result.Ok r
      | exception e -> Result.Error (Printexc.to_string e))

let gate ok = if ok then Envelope.Ok else Envelope.Fail

let status = function
  | Bound _ | Snapshot _ -> Envelope.Ok
  | Profile p -> gate (Obs.Bound_profile.exact p)
  | Soak (r, _) -> gate r.Sim.rp_ok
  | Smp_soak r -> gate r.Smp.Soak.rp_ok
  | Smp_compare (shielded, spread, cmp) ->
      gate
        (shielded.Smp.Soak.rp_ok && spread.Smp.Soak.rp_ok
       && cmp.Smp.Soak.cmp_tail_lower)
  | Race_audit r -> gate (Race.audit_ok r)
  | Explore_report r -> gate (Explore.ok r)

(* Bound payloads deliberately carry no wall-clock field: a disk-cache
   hit must produce byte-identical output to the cold solve it replays
   (the envelope's [elapsed_s] is the only timing).  [lp_solves] and
   [bb_nodes] are deterministic solver statistics, persisted with the
   result, so they survive the round trip unchanged.  The soak
   throughput is wall-clock too and stays out of the [sim] payload. *)
let to_json = function
  | Bound { target; build; l2; pin; config; wcet; ipet } ->
      let open Json in
      Obj
        ([
           ("target", Str (target_name target));
           ("build", Str (build_name build));
           ("l2", Bool l2); ("pin", Bool pin); ("wcet_cycles", int wcet);
           ("wcet_us", Fixed (3, Hw.Config.cycles_to_us config wcet));
         ]
        @
        match ipet with
        | None -> []
        | Some r ->
            [
              ( "ilp",
                Obj
                  [
                    ("vars", int r.Wcet.Ipet.ilp_vars);
                    ("constraints", int r.Wcet.Ipet.ilp_constraints);
                    ("bb_nodes", int r.Wcet.Ipet.bb_nodes);
                    ("lp_solves", int r.Wcet.Ipet.lp_solves);
                  ] );
            ])
  | Profile p -> Obs.Bound_profile.to_json p
  | Snapshot s -> Obs.Metrics.to_json s
  | Soak (r, _) -> Sim.report_to_json r
  | Smp_soak r -> Smp.Soak.report_to_json r
  | Smp_compare (_, _, cmp) -> Smp.Soak.comparison_to_json cmp
  | Race_audit r -> Race.to_json r
  | Explore_report r -> Explore.to_json r

let pp ppf = function
  | Bound { target = Entry e; build; config; wcet; ipet = Some r; _ } ->
      Fmt.pf ppf "%s, %a@\n" (Sel4_rt.Kernel_model.entry_name e) Sel4.Build.pp
        build;
      Fmt.pf ppf "hardware: %a@\n" Hw.Config.pp config;
      Fmt.pf ppf "WCET bound: %d cycles (%.1f us)@\n" wcet
        (Hw.Config.cycles_to_us config wcet);
      Fmt.pf ppf
        "ILP: %d variables, %d constraints, %d nodes, %d LP solves, %.2fs@\n"
        r.Wcet.Ipet.ilp_vars r.Wcet.Ipet.ilp_constraints r.Wcet.Ipet.bb_nodes
        r.Wcet.Ipet.lp_solves r.Wcet.Ipet.elapsed_s
  | Bound { build; config; wcet; _ } ->
      Fmt.pf ppf "worst-case interrupt response (%a): %d cycles (%.1f us)@\n"
        Sel4.Build.pp build wcet
        (Hw.Config.cycles_to_us config wcet)
  | Profile p -> Obs.Bound_profile.pp ppf p
  | Snapshot s -> Fmt.pf ppf "%a@\n" Obs.Metrics.pp s
  | Soak (r, _) -> Fmt.pf ppf "%a@\n" Sim.pp_report r
  | Smp_soak r -> Fmt.pf ppf "%a@\n" Smp.Soak.pp_report r
  | Smp_compare (shielded, spread, cmp) ->
      Fmt.pf ppf "%a@\n%a@\n%a@\n" Smp.Soak.pp_report shielded
        Smp.Soak.pp_report spread Smp.Soak.pp_comparison cmp
  | Race_audit r ->
      Fmt.pf ppf "%a@\n%a@\n%a@\n" Race.pp_matrix () Race.pp_og ()
        Race.pp_audit r
  | Explore_report r -> Fmt.pf ppf "%a@\n" Explore.pp_report r

let run_json req =
  match exec req with
  | Result.Ok r -> (status r, to_json r)
  | Result.Error msg -> (Envelope.Error, Envelope.error_payload msg)

let run req =
  let status, payload = run_json req in
  { status; payload = Json.to_compact payload }

let respond ?id req =
  let t0 = Obs.Metrics.now_s () in
  let status, payload = run_json req in
  let elapsed_s = Obs.Metrics.now_s () -. t0 in
  (Envelope.line ?id ~status ~elapsed_s payload, status)

(* --- wire parsing --- *)

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
            let* entries = opt_field "entries" Json.to_int_opt "an integer" in
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
            Result.Ok
              (Sim { smoke; seed; entries; scenarios; inv_every = None })
        | "smp" ->
            let* smoke = bool_field "smoke" true in
            let* seed = int_field "seed" 42 in
            let* entries = opt_field "entries" Json.to_int_opt "an integer" in
            let* cores = int_field "cores" 4 in
            let* shielded = bool_field "shielded" false in
            let* compare = bool_field "compare" false in
            Result.Ok
              (Smp
                 {
                   smoke;
                   seed;
                   entries;
                   cores;
                   shielded;
                   compare;
                   scenarios = [];
                   inv_every = None;
                 })
        | "race" -> Result.Ok Race
        | "explore" ->
            let* depth = opt_field "depth" Json.to_int_opt "an integer" in
            Result.Ok (Explore { depth })
        | s -> Result.Error (Fmt.str "unknown query %S" s)
      in
      let* req = validate req in
      let* () =
        match req with
        | Sim { entries; _ } | Smp { entries; _ } ->
            in_range 1 ~hi:max_wire_entries "entries" entries
        | _ -> Result.Ok ()
      in
      Result.Ok (id, req))
  | _ -> Result.Error "request must be a JSON object"
