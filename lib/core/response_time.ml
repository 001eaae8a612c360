(* Response-time analysis driver: computed (IPET) and observed
   (adversarial execution) worst cases per kernel entry point, and the
   headline quantity of the paper — the worst-case interrupt response
   time, which is the sum of the longest kernel operation (the system-call
   path) and the interrupt path (Section 6).

   All drivers take an {!Analysis_ctx.t}. *)

(* All computed (IPET) quantities route through the analysis-engine cache:
   identical (context, entry, forced) requests are analysed once per
   process, whichever experiment asks first. *)

let computed ctx entry = Analysis_cache.computed ctx entry

let computed_cycles ctx entry = (computed ctx entry).Wcet.Ipet.wcet

(* Computed execution time of the realisable path (Section 6.2: extra ILP
   constraints force analysis of the tested path). *)
let computed_for_path (ctx : Analysis_ctx.t) entry =
  let forced = Kernel_model.realisable_path ~params:ctx.params entry in
  (Analysis_cache.computed ~forced ctx entry).Wcet.Ipet.wcet

(* Worst-case interrupt response: the longest non-preemptible kernel path
   (the system call handler) plus the interrupt path itself. *)
let interrupt_response_bound ctx =
  computed_cycles ctx Kernel_model.Syscall
  + computed_cycles ctx Kernel_model.Interrupt

(* Bound decomposition: the optimal IPET basis of an entry point rendered
   as per-block cycle contributions (Obs.Bound_profile).  Routed through
   the same cache as [computed], so explaining a bound never re-solves. *)
let profile ctx entry =
  Wcet.Explain.profile ~config:ctx.Analysis_ctx.config
    ~entry:(Kernel_model.entry_main entry)
    (computed ctx entry)

(* The full response-time decomposition: syscall path followed by the
   interrupt path; total = interrupt_response_bound by construction. *)
let interrupt_response_profile ctx =
  Obs.Bound_profile.concat ~entry:"kernel_entry"
    [ profile ctx Kernel_model.Syscall; profile ctx Kernel_model.Interrupt ]
