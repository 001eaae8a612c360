(* Bounded model checking of loop bounds with binary search, following the
   architecture of Section 5.3: the program is turned into a transition
   system whose states are (block label, visit count) pairs; the property
   "the loop head executes at most N times" is an LTL [always]; and the
   bound is found by binary search over N using the checker as a yes/no
   oracle.  The checked program is the full one: the caller measures the
   slice (Tac.Slice keeps every branch decision, so the visit counts are
   the same) but does not hand it over.

   The state space is the product of the declared finite input domains and
   the program's executions; both are exhausted, so a "verified" answer is
   a proof over the whole domain, not a sample. *)

type verdict = Verified | Violated of (Tac.Lang.reg * int) list | Diverged

(* One trace state: the block just entered and its visit count so far. *)
type trace_state = { label : string; visit : int }

let bound_formula ~header ~bound =
  Ltl.always
    (Ltl.prop
       (Fmt.str "visits(%s) <= %d" header bound)
       (fun s -> s.label <> header || s.visit <= bound))

(* Check [always (visits header <= bound)] over every input valuation. *)
let verify ?(max_steps = 200_000) program ~header ~bound =
  let formula = bound_formula ~header ~bound in
  let witness = ref [] in
  let ok =
    Tac.Interp.for_all_inputs program (fun inputs ->
        let trace = ref [] in
        match
          Tac.Interp.run ~max_steps
            ~on_visit:(fun label visit ->
              if label = header then trace := { label; visit } :: !trace)
            program ~inputs
        with
        | exception Tac.Interp.Step_limit -> false
        | _state, _counts ->
            let holds = Ltl.check_trace formula (List.rev !trace) in
            if not holds then witness := inputs;
            holds)
  in
  if ok then Verified
  else if !witness <> [] then Violated !witness
  else Diverged

(* Binary search for the least verified bound (the paper's "binary search
   over the loop count").  Returns [None] if even [upper] cannot be
   verified (divergence or a genuinely larger bound). *)
let find_bound ?(max_steps = 200_000) ?(upper = 65_536) program ~header =
  match verify ~max_steps program ~header ~bound:upper with
  | Violated _ | Diverged -> None
  | Verified ->
      let rec search lo hi =
        (* Invariant: hi is verified, lo-1 ... all below lo unverified or
           unknown; find least verified in [lo, hi]. *)
        if lo >= hi then Some hi
        else
          let mid = (lo + hi) / 2 in
          match verify ~max_steps program ~header ~bound:mid with
          | Verified -> search lo mid
          | Violated _ | Diverged -> search (mid + 1) hi
      in
      search 0 upper

(* Ground truth by exhaustive execution: the maximum observed visit count
   of [header] over all inputs.  Used by tests to check soundness and
   tightness of the checker and of the interval analysis. *)
let max_observed ?(max_steps = 200_000) program ~header =
  let best = ref 0 in
  let _ =
    Tac.Interp.for_all_inputs program (fun inputs ->
        let _, trace = Tac.Interp.run ~max_steps program ~inputs in
        best := max !best (Tac.Interp.visits trace header);
        true)
  in
  !best

let pp_verdict ppf = function
  | Verified -> Fmt.string ppf "verified"
  | Violated inputs ->
      Fmt.pf ppf "violated at {%a}"
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string int))
        inputs
  | Diverged -> Fmt.string ppf "diverged (step limit)"
