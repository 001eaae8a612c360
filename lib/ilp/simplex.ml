(* Two-phase simplex with sparse constraint input, solved in floats and
   certified in exact rationals.

   Both pivot loops run the same textbook algorithm with Bland's
   anti-cycling rule over the same column layout:
   - constraints arrive as sparse (variable, coefficient) rows and are
     normalised to non-negative right-hand sides;
   - Le constraints get a slack variable, Ge a surplus plus an artificial,
     Eq an artificial;
   - phase 1 maximises minus the sum of artificials; a negative optimum
     means the problem is infeasible;
   - phase 2 reuses the phase-1 tableau: the user objective is installed
     and priced out in place, with artificial columns banned from entering.

   [solve] first presolves: variables tied by an equation c.x_p - c.x_q = 0
   (the flow rows of blocks with one predecessor or one successor, most of
   an IPET LP) are one class, solved as one column.  It runs the loop on
   that reduced LP over unboxed [float array] rows, with scaled tolerances
   standing in for exact zero tests and ties, lifts the answer back to the
   original variables and rows, and proves it in [Rat] on the original LP
   ([certify]), so the reduction is checked on every solve rather than
   trusted.  The primal point x is the final basis rounded to integers; the
   dual y is read from the reduced cost of each row's unit column (its
   slack for Le, its artificial for Ge and Eq) and reconstructed as
   small-denominator rationals.  If x >= 0 satisfies every row exactly, y
   has the right sign per row (Le >= 0, Ge <= 0, Eq free), A^T y >= c
   column by column and c.x = b.y, then every feasible x' has c.x' <= y.Ax'
   <= y.b = c.x: no feasible point beats x, which is the soundness claim an
   upper bound on execution time needs.  So the tolerances decide only how
   often the proof fails, never what is claimed.  When it fails -- or the
   float solve reports infeasible or unbounded, rounds to a fractional
   point, or hits its pivot cap -- [solve_exact] answers on the original
   LP: the same algorithm over exact rationals with overflow detection,
   kept as the reference the tests compare against.  Both reach the same
   optimum; on the reduced LP the pivots may end at a different optimal
   vertex, which for the IPET LPs the tests rule out.  Duals are reported
   in the caller's row orientation, i.e. for the rows of [lp.constraints]
   as given, before the rhs normalisation.

   IPET flow matrices are ~95 % zeros (each flow-conservation row touches a
   handful of the hundreds of columns), so the tableau is built from sparse
   rows and every pivot walks only the nonzero columns of the pivot row —
   entries outside that support are unchanged by the row operation.  The
   backing store stays a dense array per row because pivoting fills in.
   The float loop is written out rather than shared with the exact one
   through a functor: without flambda that would box every float. *)

type op = Le | Ge | Eq

type lp = {
  num_vars : int;
  maximize : Rat.t array;
  constraints : ((int * Rat.t) list * op * Rat.t) list;
      (* sparse rows: (variable index, nonzero coefficient) pairs *)
}

type solution = { objective : Rat.t; values : Rat.t array; duals : Rat.t array }
type result = Optimal of solution | Infeasible | Unbounded

(* --- The column layout both pivot loops share --- *)

type layout = {
  num_vars : int;
  rows_in : ((int * Rat.t) list * op * Rat.t) array;  (* rhs >= 0 *)
  flipped : bool array;  (* row negated by the normalisation *)
  slack : int array;  (* slack (+1) or surplus (-1) column; -1 for Eq *)
  unit_col : int array;
      (* the column that starts as the row's unit vector: the slack of a Le
         row, the artificial of a Ge or Eq row.  It is the row's first basic
         column, and minus its final reduced cost is the row's dual. *)
  art_first : int;  (* first artificial column; cols if none *)
  cols : int;
}

let layout (lp : lp) =
  let flip = function Le -> Ge | Ge -> Le | Eq -> Eq in
  let given = Array.of_list lp.constraints in
  let flipped = Array.map (fun (_, _, rhs) -> Rat.sign rhs < 0) given in
  let rows_in =
    Array.map
      (fun (terms, op, rhs) ->
        List.iter (fun (v, _) -> assert (v >= 0 && v < lp.num_vars)) terms;
        if Rat.sign rhs < 0 then
          (List.map (fun (v, c) -> (v, Rat.neg c)) terms, flip op, Rat.neg rhs)
        else (terms, op, rhs))
      given
  in
  let count p =
    Array.fold_left (fun n (_, op, _) -> if p op then n + 1 else n) 0 rows_in
  in
  let art_first = lp.num_vars + count (fun op -> op <> Eq) in
  let m = Array.length rows_in in
  let slack = Array.make m (-1) and unit_col = Array.make m (-1) in
  let next_slack = ref lp.num_vars and next_art = ref art_first in
  Array.iteri
    (fun i (_, op, _) ->
      if op <> Eq then begin
        slack.(i) <- !next_slack;
        incr next_slack
      end;
      if op = Le then unit_col.(i) <- slack.(i)
      else begin
        unit_col.(i) <- !next_art;
        incr next_art
      end)
    rows_in;
  { num_vars = lp.num_vars; rows_in; flipped; slack; unit_col; art_first;
    cols = !next_art }

(* Every initial tableau entry: structural coefficients (a variable may
   repeat within a row; callers sum), then the surplus and unit columns. *)
let iter_entries lay f =
  Array.iteri
    (fun i (terms, op, _) ->
      List.iter (fun (v, c) -> f i v c) terms;
      if op = Ge then f i lay.slack.(i) Rat.minus_one;
      f i lay.unit_col.(i) Rat.one)
    lay.rows_in

(* The primal point and duals at a final basis, given row [i]'s basic
   value [value i] and column [j]'s reduced cost [reduced j] in [Rat]. *)
let read_out lay ~basis ~value ~reduced =
  let values = Array.make lay.num_vars Rat.zero in
  Array.iteri (fun i b -> if b < lay.num_vars then values.(b) <- value i) basis;
  let duals =
    Array.mapi
      (fun i j ->
        let r = reduced j in
        if lay.flipped.(i) then r else Rat.neg r)
      lay.unit_col
  in
  (values, duals)

(* --- The certificate --- *)

exception Rejected

let certify (lp : lp) s =
  let check ok = if not ok then raise Rejected in
  try
    check
      (Array.length s.values = lp.num_vars
      && Array.length s.duals = List.length lp.constraints);
    Array.iter (fun x -> check (Rat.sign x >= 0)) s.values;
    let aty = Array.make lp.num_vars Rat.zero and by = ref Rat.zero in
    List.iteri
      (fun i (terms, op, b) ->
        let y = s.duals.(i) in
        let ax =
          List.fold_left
            (fun ax (v, c) ->
              aty.(v) <- Rat.add aty.(v) (Rat.mul c y);
              Rat.add ax (Rat.mul c s.values.(v)))
            Rat.zero terms
        in
        let rel = Rat.compare ax b and sign = Rat.sign y in
        check
          (match op with
          | Le -> rel <= 0 && sign >= 0
          | Ge -> rel >= 0 && sign <= 0
          | Eq -> rel = 0);
        by := Rat.add !by (Rat.mul b y))
      lp.constraints;
    let cx = ref Rat.zero in
    Array.iteri
      (fun v c ->
        check (Rat.ge aty.(v) c);
        cx := Rat.add !cx (Rat.mul c s.values.(v)))
      lp.maximize;
    Rat.equal !cx s.objective && Rat.equal !cx !by
  with Rejected | Rat.Overflow -> false

(* --- The exact pivot loop --- *)

type tableau = {
  rows : Rat.t array array;  (* m rows, each of width [cols] *)
  rhs : Rat.t array;
  basis : int array;  (* column index of the basic variable of each row *)
  cost : Rat.t array;  (* current reduced costs *)
  mutable objective : Rat.t;
  cols : int;
  art_first : int;  (* first artificial column; cols if none *)
  nz_scratch : int array;  (* reusable buffer for pivot-row nonzeros *)
}

exception Infeasible_exn

let pivot t ~row ~col =
  let piv = t.rows.(row).(col) in
  assert (Rat.sign piv > 0);
  let r = t.rows.(row) in
  (* Collect the nonzero support of the pivot row once; every update below
     only touches these columns (zero pivot-row entries leave the other
     rows untouched). *)
  let nnz = ref 0 in
  if Rat.equal piv Rat.one then begin
    for j = 0 to t.cols - 1 do
      if not (Rat.is_zero r.(j)) then begin
        t.nz_scratch.(!nnz) <- j;
        incr nnz
      end
    done
  end
  else begin
    let inv = Rat.inv piv in
    for j = 0 to t.cols - 1 do
      if not (Rat.is_zero r.(j)) then begin
        r.(j) <- Rat.mul r.(j) inv;
        t.nz_scratch.(!nnz) <- j;
        incr nnz
      end
    done;
    t.rhs.(row) <- Rat.mul t.rhs.(row) inv
  end;
  let nnz = !nnz in
  let eliminate coeffs =
    let factor = coeffs.(col) in
    if Rat.is_zero factor then Rat.zero
    else begin
      for k = 0 to nnz - 1 do
        let j = t.nz_scratch.(k) in
        coeffs.(j) <- Rat.sub coeffs.(j) (Rat.mul factor r.(j))
      done;
      Rat.mul factor t.rhs.(row)
    end
  in
  Array.iteri
    (fun i coeffs ->
      if i <> row then
        let delta = eliminate coeffs in
        if not (Rat.is_zero delta) then t.rhs.(i) <- Rat.sub t.rhs.(i) delta)
    t.rows;
  (* The cost row represents z = objective + sum cbar_j x_j, so its constant
     moves with the opposite sign from the constraint rows. *)
  t.objective <- Rat.add t.objective (eliminate t.cost);
  t.basis.(row) <- col

(* One simplex phase: maximise until no improving non-artificial column.
   Bland's rule: smallest-index entering column; ratio-test ties broken by
   smallest basic-variable index. *)
let iterate t =
  let m = Array.length t.rows in
  let rec step () =
    let entering = ref (-1) in
    (try
       for j = 0 to t.art_first - 1 do
         if Rat.sign t.cost.(j) > 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      let leave = ref (-1) in
      let best = ref Rat.zero in
      for i = 0 to m - 1 do
        if Rat.sign t.rows.(i).(col) > 0 then begin
          let ratio = Rat.div t.rhs.(i) t.rows.(i).(col) in
          if
            !leave < 0
            || Rat.lt ratio !best
            || (Rat.equal ratio !best && t.basis.(i) < t.basis.(!leave))
          then begin
            leave := i;
            best := ratio
          end
        end
      done;
      if !leave < 0 then `Unbounded
      else begin
        pivot t ~row:!leave ~col;
        step ()
      end
    end
  in
  step ()

let exact lay (lp : lp) =
  let m = Array.length lay.rows_in and cols = lay.cols in
  let art_first = lay.art_first in
  let rows = Array.init m (fun _ -> Array.make cols Rat.zero) in
  iter_entries lay (fun i j c -> rows.(i).(j) <- Rat.add rows.(i).(j) c);
  let rhs = Array.map (fun (_, _, b) -> b) lay.rows_in in
  let basis = Array.copy lay.unit_col in
  let t =
    { rows; rhs; basis; cost = Array.make cols Rat.zero; objective = Rat.zero;
      cols; art_first; nz_scratch = Array.make cols 0 }
  in
  (* Phase 1: maximise -(sum of artificials).  With artificials basic, the
     reduced costs are the column sums over the artificial rows. *)
  if art_first < cols then begin
    for i = 0 to m - 1 do
      if basis.(i) >= art_first then begin
        for j = 0 to art_first - 1 do
          if not (Rat.is_zero rows.(i).(j)) then
            t.cost.(j) <- Rat.add t.cost.(j) rows.(i).(j)
        done;
        t.objective <- Rat.sub t.objective rhs.(i)
      end
    done;
    match iterate t with
    | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
    | `Optimal ->
        if Rat.sign t.objective < 0 then raise Infeasible_exn
  end;
  (* Drive any artificial still in the basis (at value 0) out, or mark its
     row redundant by zeroing it. *)
  for i = 0 to m - 1 do
    if t.basis.(i) >= art_first then begin
      let piv = ref (-1) in
      (try
         for j = 0 to art_first - 1 do
           if Rat.sign t.rows.(i).(j) <> 0 then begin
             piv := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !piv >= 0 then begin
        (* The row is degenerate (rhs = 0), so a negative pivot element can
           be made positive by negating the whole row. *)
        if Rat.sign t.rows.(i).(!piv) < 0 then begin
          t.rows.(i) <- Array.map Rat.neg t.rows.(i);
          t.rhs.(i) <- Rat.neg t.rhs.(i)
        end;
        pivot t ~row:i ~col:!piv
      end
      else begin
        (* Redundant row: clear it so it can never constrain anything. *)
        Array.fill t.rows.(i) 0 cols Rat.zero;
        t.rhs.(i) <- Rat.zero;
        t.rows.(i).(t.basis.(i)) <- Rat.one
      end
    end
  done;
  (* Phase 2 reuses the phase-1 tableau: install the user objective and
     price out basic columns in place. *)
  Array.fill t.cost 0 cols Rat.zero;
  t.objective <- Rat.zero;
  Array.blit lp.maximize 0 t.cost 0 lp.num_vars;
  for i = 0 to m - 1 do
    let b = t.basis.(i) in
    if b < lp.num_vars then begin
      let c = lp.maximize.(b) in
      if not (Rat.is_zero c) then begin
        let r = t.rows.(i) in
        for j = 0 to cols - 1 do
          if not (Rat.is_zero r.(j)) then
            t.cost.(j) <- Rat.sub t.cost.(j) (Rat.mul c r.(j))
        done;
        t.objective <- Rat.add t.objective (Rat.mul c t.rhs.(i))
      end
    end
  done;
  match iterate t with
  | `Unbounded -> Unbounded
  | `Optimal ->
      let values, duals =
        read_out lay ~basis:t.basis
          ~value:(fun i -> t.rhs.(i))
          ~reduced:(fun j -> t.cost.(j))
      in
      Optimal { objective = t.objective; values; duals }

let exact lay lp = try exact lay lp with Infeasible_exn -> Infeasible

(* --- The float pivot loop --- *)

module Float_path = struct
  (* Anything short of a certifiable optimum: the exact loop answers. *)
  exception Fallback

  (* Relative tolerance: a result within [tol] of its operands' scale
     is a cancelled zero, a reduced cost within [tol] of the objective's
     scale is not improving, and two ratios within [tol] of the rhs scale
     tie.  None of them can make a wrong answer pass the certificate. *)
  let tol = 1e-9

  (* Bland's rule terminates in exact arithmetic; in floats, rounding
     could in principle make it cycle. *)
  let max_pivots = 50_000

  (* Duals are reconstructed with denominators up to this. *)
  let max_den = 1 lsl 20

  type tableau = {
    rows : float array array;
    rhs : float array;
    basis : int array;
    cost : float array;
    mutable objective : float;
    cols : int;
    art_first : int;
    nz_scratch : int array;
    col_rows : int array;  (* rows with a nonzero in the entering column *)
    rhs_scale : float;  (* max 1 |b_i|: the unit of the rhs tolerances *)
    mutable pivots : int;
  }

  (* Fill [t.col_rows] with the rows that have a nonzero entry in column
     [col], in row order, and return how many: a pivot on [col] changes
     only those rows. *)
  let column t col =
    let n = ref 0 in
    for i = 0 to Array.length t.rows - 1 do
      if t.rows.(i).(col) <> 0. then begin
        t.col_rows.(!n) <- i;
        incr n
      end
    done;
    !n

  let pivot t ~row ~col ~support =
    t.pivots <- t.pivots + 1;
    if t.pivots > max_pivots then raise Fallback;
    let r = t.rows.(row) in
    let piv = r.(col) in
    if not (piv > 0.) then raise Fallback;
    let nz = t.nz_scratch and nnz = ref 0 in
    if piv = 1. then begin
      for j = 0 to t.cols - 1 do
        if r.(j) <> 0. then begin
          nz.(!nnz) <- j;
          incr nnz
        end
      done
    end
    else begin
      for j = 0 to t.cols - 1 do
        let a = r.(j) in
        if a <> 0. then begin
          r.(j) <- a /. piv;
          nz.(!nnz) <- j;
          incr nnz
        end
      done;
      r.(col) <- 1.;
      t.rhs.(row) <- t.rhs.(row) /. piv
    end;
    let nnz = !nnz in
    (* Subtract [coeffs.(col)] times the pivot row, flushing results that
       cancel to within [tol] of the old entry to an exact zero. *)
    let eliminate coeffs =
      let factor = coeffs.(col) in
      for k = 0 to nnz - 1 do
        let j = nz.(k) in
        let a = coeffs.(j) in
        let v = a -. (factor *. r.(j)) in
        coeffs.(j) <- (if Float.abs v <= tol *. Float.abs a then 0. else v)
      done
    in
    let pr = t.rhs.(row) in
    for k = 0 to support - 1 do
      let i = t.col_rows.(k) in
      if i <> row then begin
        let coeffs = t.rows.(i) in
        let factor = coeffs.(col) in
        eliminate coeffs;
        let b = t.rhs.(i) in
        let v = b -. (factor *. pr) in
        t.rhs.(i) <- (if Float.abs v <= tol *. Float.abs b then 0. else v)
      end
    done;
    let factor = t.cost.(col) in
    if factor <> 0. then begin
      eliminate t.cost;
      t.objective <- t.objective +. (factor *. pr)
    end;
    t.basis.(row) <- col

  let largest a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1. a

  (* Bland's rule as in the exact [iterate], with [cost_eps] the smallest
     improving reduced cost, pivot elements measured against their
     column and ratio ties against the rhs scale. *)
  let iterate t ~cost_eps =
    let rec step () =
      let entering = ref (-1) in
      (try
         for j = 0 to t.art_first - 1 do
           if t.cost.(j) > cost_eps then begin
             entering := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !entering < 0 then `Optimal
      else begin
        let col = !entering in
        let support = column t col in
        let col_max = ref 1. in
        for k = 0 to support - 1 do
          let a = Float.abs t.rows.(t.col_rows.(k)).(col) in
          if a > !col_max then col_max := a
        done;
        let piv_eps = tol *. !col_max in
        let leave = ref (-1) in
        let best = ref 0. in
        for k = 0 to support - 1 do
          let i = t.col_rows.(k) in
          let a = t.rows.(i).(col) in
          if a > piv_eps then begin
            let ratio = t.rhs.(i) /. a in
            let scale = Float.abs ratio +. Float.abs !best in
            let tie =
              tol *. (if scale > t.rhs_scale then scale else t.rhs_scale)
            in
            if
              !leave < 0
              || ratio < !best -. tie
              || (ratio <= !best +. tie && t.basis.(i) < t.basis.(!leave))
            then begin
              leave := i;
              best := ratio
            end
          end
        done;
        if !leave < 0 then `Unbounded
        else begin
          pivot t ~row:!leave ~col ~support;
          step ()
        end
      end
    in
    step ()

  (* The first continued-fraction convergent of [f] within [err] of it,
     or [None] if none has a denominator up to [max_den]. *)
  let reconstruct ~err f =
    let rec go x a (hp, kp) (h, k) =
      if Float.abs (f -. (float_of_int h /. float_of_int k)) <= err then
        Some (Rat.make h k)
      else
        let frac = x -. a in
        if frac <= 0. then None
        else
          let x = 1. /. frac in
          let a = Float.floor x in
          if a > float_of_int max_den then None
          else
            let ai = int_of_float a in
            let h' = (ai * h) + hp and k' = (ai * k) + kp in
            if k' > max_den then None else go x a (h, k) (h', k')
    in
    if not (Float.abs f < 0x1p40) then None
    else
      let a = Float.floor f in
      go f a (1, 0) (int_of_float a, 1)

  (* The phases of [exact], step for step, so both reach the same basis. *)
  let solve lay (lp : lp) =
    let m = Array.length lay.rows_in and cols = lay.cols in
    let art_first = lay.art_first in
    let rows = Array.init m (fun _ -> Array.make cols 0.) in
    iter_entries lay (fun i j c -> rows.(i).(j) <- rows.(i).(j) +. Rat.to_float c);
    let rhs = Array.map (fun (_, _, b) -> Rat.to_float b) lay.rows_in in
    let t =
      { rows; rhs; basis = Array.copy lay.unit_col; cost = Array.make cols 0.;
        objective = 0.; cols; art_first; nz_scratch = Array.make cols 0;
        col_rows = Array.make m 0; rhs_scale = largest rhs; pivots = 0 }
    in
    if art_first < cols then begin
      for i = 0 to m - 1 do
        if t.basis.(i) >= art_first then begin
          let r = rows.(i) in
          for j = 0 to art_first - 1 do
            if r.(j) <> 0. then t.cost.(j) <- t.cost.(j) +. r.(j)
          done;
          t.objective <- t.objective -. rhs.(i)
        end
      done;
      match iterate t ~cost_eps:(tol *. largest t.cost) with
      | `Unbounded -> raise Fallback
      | `Optimal -> if t.objective < -.tol *. t.rhs_scale then raise Fallback
    end;
    for i = 0 to m - 1 do
      if t.basis.(i) >= art_first then begin
        let r = t.rows.(i) in
        let eps = ref 1. in
        for j = 0 to art_first - 1 do
          let a = Float.abs r.(j) in
          if a > !eps then eps := a
        done;
        let eps = tol *. !eps in
        let piv = ref (-1) in
        (try
           for j = 0 to art_first - 1 do
             if Float.abs r.(j) > eps then begin
               piv := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !piv >= 0 then begin
          if r.(!piv) < 0. then begin
            Array.map_inplace Float.neg r;
            t.rhs.(i) <- -.t.rhs.(i)
          end;
          pivot t ~row:i ~col:!piv ~support:(column t !piv)
        end
        else begin
          Array.fill r 0 cols 0.;
          t.rhs.(i) <- 0.;
          r.(t.basis.(i)) <- 1.
        end
      end
    done;
    let c = Array.map Rat.to_float lp.maximize in
    Array.fill t.cost 0 cols 0.;
    t.objective <- 0.;
    Array.blit c 0 t.cost 0 lp.num_vars;
    for i = 0 to m - 1 do
      let b = t.basis.(i) in
      if b < lp.num_vars && c.(b) <> 0. then begin
        let cb = c.(b) and r = t.rows.(i) in
        for j = 0 to cols - 1 do
          let a = r.(j) in
          if a <> 0. then begin
            let old = t.cost.(j) in
            let v = old -. (cb *. a) in
            t.cost.(j) <- (if Float.abs v <= tol *. Float.abs old then 0. else v)
          end
        done;
        t.objective <- t.objective +. (cb *. t.rhs.(i))
      end
    done;
    let cost_eps = tol *. largest c in
    match iterate t ~cost_eps with
    | `Unbounded -> raise Fallback
    | `Optimal ->
        let value i =
          let v = t.rhs.(i) in
          let x = Float.round v in
          if Float.abs (v -. x) <= tol *. t.rhs_scale && Float.abs x < 0x1p52
          then Rat.of_int (int_of_float x)
          else raise Fallback
        and reduced j =
          match reconstruct ~err:cost_eps t.cost.(j) with
          | Some q -> q
          | None -> raise Fallback
        in
        let values, duals = read_out lay ~basis:t.basis ~value ~reduced in
        let objective = ref Rat.zero in
        Array.iteri
          (fun v c ->
            if not (Rat.is_zero values.(v)) then
              objective := Rat.add !objective (Rat.mul c values.(v)))
          lp.maximize;
        { objective = !objective; values; duals }
end

(* --- The presolve --- *)

module Presolve = struct
  type t = {
    lp : lp;  (* one column per class, the rows that still say something *)
    class_of : int array;  (* original variable -> its class column *)
    kept : int array;  (* original row -> its reduced row, or -1 *)
    settle : (int * int * int * Rat.t) array;
        (* the spanning-tree rows, leaf to root: (row, child, parent,
           the row's coefficient on the child) *)
  }

  (* [terms] with duplicate variables summed and zero sums dropped, in
     first-occurrence order, mapped through [col] and accumulated in
     [acc] (all zero between calls). *)
  let merge acc col terms =
    let order =
      List.fold_left
        (fun order (v, c) ->
          let k = col v in
          let fresh = Rat.is_zero acc.(k) in
          acc.(k) <- Rat.add acc.(k) c;
          if fresh then k :: order else order)
        [] terms
    in
    List.fold_left
      (fun merged k ->
        let c = acc.(k) in
        acc.(k) <- Rat.zero;
        if Rat.is_zero c then merged else (k, c) :: merged)
      [] order

  let rec find parent v =
    let p = parent.(v) in
    if p = v then v
    else begin
      let r = find parent p in
      parent.(v) <- r;
      r
    end

  let reduce (lp : lp) =
    let n = lp.num_vars in
    let rows = Array.of_list lp.constraints in
    let acc = Array.make n Rat.zero in
    (* Union-find over the tying rows c.x_p - c.x_q = 0; a row that joins
       two classes is a spanning-tree edge, one inside a class says
       nothing new. *)
    let parent = Array.init n Fun.id and adj = Array.make n [] in
    Array.iteri
      (fun i (terms, op, rhs) ->
        if op = Eq && Rat.is_zero rhs then
          match merge acc Fun.id terms with
          | [ (p, a); (q, b) ] when Rat.equal a (Rat.neg b) ->
              let rp = find parent p and rq = find parent q in
              if rp <> rq then begin
                parent.(rq) <- rp;
                adj.(p) <- (q, i, a) :: adj.(p);  (* a: p's coefficient *)
                adj.(q) <- (p, i, b) :: adj.(q)
              end
          | _ -> ())
      rows;
    (* Columns in order of each class's smallest member; the tree is
       walked breadth-first from that member, so reversing the walk
       visits every child before its parent. *)
    let class_of = Array.make n (-1) and classes = ref 0 in
    let settle = ref [] and queue = Queue.create () in
    for v = 0 to n - 1 do
      if class_of.(v) < 0 then begin
        let k = !classes in
        incr classes;
        class_of.(v) <- k;
        Queue.add v queue;
        while not (Queue.is_empty queue) do
          let u = Queue.pop queue in
          List.iter
            (fun (w, i, a) ->
              if class_of.(w) < 0 then begin
                class_of.(w) <- k;
                settle := (i, w, u, Rat.neg a) :: !settle;
                Queue.add w queue
              end)
            adj.(u)
        done
      end
    done;
    let width = !classes in
    let maximize = Array.make width Rat.zero in
    Array.iteri
      (fun v c -> maximize.(class_of.(v)) <- Rat.add maximize.(class_of.(v)) c)
      lp.maximize;
    (* Rewrite every row in class terms; one left empty with its relation
       holding at 0 (every tying row, among others) is dropped. *)
    let kept = Array.make (Array.length rows) (-1) and reduced = ref [] in
    let next = ref 0 in
    Array.iteri
      (fun i (terms, op, rhs) ->
        let terms = merge acc (fun v -> class_of.(v)) terms in
        let holds =
          match op with
          | Le -> Rat.sign rhs >= 0
          | Ge -> Rat.sign rhs <= 0
          | Eq -> Rat.is_zero rhs
        in
        if terms <> [] || not holds then begin
          kept.(i) <- !next;
          incr next;
          reduced := (terms, op, rhs) :: !reduced
        end)
      rows;
    {
      lp = { num_vars = width; maximize; constraints = List.rev !reduced };
      class_of;
      kept;
      settle = Array.of_list !settle;
    }

  (* The reduced LP's answer read on the original columns and rows: each
     member takes its class value; a kept row its reduced dual; a tree row
     the dual that leaves its child's slack (A^T y)_j - c_j at 0, which
     moves that slack onto the parent, so each class's total -- its
     reduced column's slack, >= 0 -- ends on the root.  Every other row's
     dual is 0. *)
  let lift r (lp : lp) (s : solution) =
    let values = Array.map (fun k -> s.values.(k)) r.class_of in
    let duals =
      Array.map (fun i -> if i < 0 then Rat.zero else s.duals.(i)) r.kept
    in
    let slack = Array.map Rat.neg lp.maximize in
    List.iteri
      (fun i (terms, _, _) ->
        let y = duals.(i) in
        if not (Rat.is_zero y) then
          List.iter
            (fun (v, c) -> slack.(v) <- Rat.add slack.(v) (Rat.mul c y))
            terms)
      lp.constraints;
    Array.iter
      (fun (i, child, parent, a) ->
        duals.(i) <- Rat.neg (Rat.div slack.(child) a);
        slack.(parent) <- Rat.add slack.(parent) slack.(child);
        slack.(child) <- Rat.zero)
      r.settle;
    { s with values; duals }
end

let solve_exact lp = exact (layout lp) lp

let solve ?(on_fallback = ignore) lp =
  let certified =
    match
      let r = Presolve.reduce lp in
      Presolve.lift r lp (Float_path.solve (layout r.lp) r.lp)
    with
    | s -> if certify lp s then Some s else None
    | exception (Float_path.Fallback | Rat.Overflow) -> None
  in
  match certified with
  | Some s -> Optimal s
  | None ->
      on_fallback ();
      solve_exact lp

let pp_result ppf = function
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unbounded -> Fmt.string ppf "unbounded"
  | Optimal { objective; values; _ } ->
      Fmt.pf ppf "optimal %a at (%a)" Rat.pp objective
        Fmt.(array ~sep:comma Rat.pp)
        values
