(** Mechanical derivation and audit of the Section 5.2 manual constraints.

    The kernel's branch logic is re-expressed as small TAC decision
    models (the same move Section 5.3 makes for loops), each carrying a
    map from model block labels to kernel CFG block labels.  The
    {!Tac.Absint} fixpoint over a model then yields constraints over the
    kernel blocks:

    - {e exclusive paths}: two mapped blocks whose in-states assign
      disjoint abstract values to a shared (run-constant) register can
      never both execute in one invocation — a [Conflicts_with];
    - {e equal guards}: two branch arms guarded by syntactically equal
      run-constant conditions, each branch executing exactly once per
      invocation, execute equally often — a [Consistent_with] (the
      Figure 6 duplicated-switch pattern);
    - {e loop trip count}: a mapped block inside a single depth-1 loop
      with an interval-derived trip bound — an [Executes_at_most].

    Every manual constraint additionally receives a verdict: [Proved]
    when a derivation subsumes it, [Refuted] when exhaustive concrete
    execution of a covering model (over its declared finite parameter
    domains) exhibits a violating run, [Unknown] otherwise. *)

type model = {
  dm_name : string;
  dm_func : string;  (** kernel CFG function the model describes *)
  dm_program : Tac.Lang.program;
  dm_labels : (string * string) list;
      (** model block label → kernel block label *)
  dm_calls_bound : int;
      (** declared maximum invocations of [dm_func] per kernel
          activation; scales derived global caps.  Conflict and
          consistency constraints are per-invocation and do not use
          it. *)
}

type rule = Exclusive_paths | Equal_guards | Loop_trip_count

type derivation = { dv_model : string; dv_rule : rule; dv_note : string }

type verdict = Proved | Refuted | Unknown

type audit_line = {
  al_constraint : User_constraint.t;
  al_verdict : verdict;
  al_evidence : string;
}

type report = {
  rep_derived : (User_constraint.t * derivation) list;
  rep_audit : audit_line list;
  rep_iterations : int;  (** absint iterations over all models *)
  rep_widenings : int;
  rep_narrowings : int;
}

val derive : model list -> report
(** Derivations only; the audit list is empty. *)

val audit : models:model list -> manual:User_constraint.t list -> report
(** Derivations plus a verdict per manual constraint.  Updates the
    [constraints.*] and [absint.*] metrics counters. *)

val rule_name : rule -> string
val pp_report : report Fmt.t
