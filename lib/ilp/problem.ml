(* Named-variable ILP/LP problem builder.

   A thin convenience layer over {!Simplex}: variables are created by name,
   constraints are integer-coefficient linear combinations, and the whole
   problem can be rendered for debugging (the paper's Section 5.2 works by
   inspecting and manually extending exactly such constraint systems).

   Names and labels are rendered only when read: a variable keeps its
   name as a prefix plus integer indices, and a row label is lazy, so
   building a problem formats nothing. *)

type var = int

type relation = Le | Ge | Eq

type cstr = {
  label : string Lazy.t;
  terms : (int * var) list;
  relation : relation;
  bound : int;
}

type t = {
  mutable names : string array;  (* the first [count] are in use *)
  mutable indices : int list array;  (* rendered after the name, "_"-joined *)
  mutable count : int;
  mutable constraints : cstr list;  (* reversed *)
  mutable objective : (int * var) list;
}

let create () =
  { names = [||]; indices = [||]; count = 0; constraints = []; objective = [] }

let grow a v fill =
  let grown = Array.make (max 16 (2 * v)) fill in
  Array.blit a 0 grown 0 v;
  grown

let var ?(index = []) t name =
  let v = t.count in
  if v = Array.length t.names then begin
    t.names <- grow t.names v "";
    t.indices <- grow t.indices v []
  end;
  t.names.(v) <- name;
  t.indices.(v) <- index;
  t.count <- v + 1;
  v

let num_vars t = t.count

let name t v =
  match t.indices.(v) with
  | [] -> t.names.(v)
  | index -> t.names.(v) ^ String.concat "_" (List.map string_of_int index)

let add_constraint ?(label = lazy "") t terms relation bound =
  List.iter (fun (_, v) -> assert (v >= 0 && v < t.count)) terms;
  t.constraints <- { label; terms; relation; bound } :: t.constraints

let add_le ?label t terms bound = add_constraint ?label t terms Le bound
let add_ge ?label t terms bound = add_constraint ?label t terms Ge bound
let add_eq ?label t terms bound = add_constraint ?label t terms Eq bound
let set_objective t terms = t.objective <- terms

let constraints t = List.rev t.constraints
let num_constraints t = List.length t.constraints
let objective t = t.objective

let rec mentions v = function
  | [] -> false
  | (_, u) :: rest -> u = v || mentions v rest

let rec sum_of v acc = function
  | [] -> acc
  | (c, u) :: rest -> sum_of v (if u = v then acc + c else acc) rest

(* Merge duplicate variables of a term list into a sparse row, keeping
   first-occurrence order (deterministic) and dropping zero sums.  Rows
   are short, so a later duplicate is found by scanning: each term sums
   the rest of the row for its variable unless it appeared earlier. *)
let sparse_row terms =
  let rec merge earlier = function
    | [] -> []
    | (c, v) :: rest ->
        if mentions v earlier then merge earlier rest
        else
          let earlier =
            if mentions v rest then (c, v) :: earlier else earlier
          in
          let c = sum_of v c rest in
          if c = 0 then merge earlier rest
          else (v, Rat.of_int c) :: merge earlier rest
  in
  merge [] terms

let to_lp ?(extra = []) t : Simplex.lp =
  let dense terms =
    let coeffs = Array.make t.count Rat.zero in
    List.iter
      (fun (c, v) -> coeffs.(v) <- Rat.add coeffs.(v) (Rat.of_int c))
      terms;
    coeffs
  in
  let convert { terms; relation; bound; _ } =
    let op =
      match relation with
      | Le -> Simplex.Le
      | Ge -> Simplex.Ge
      | Eq -> Simplex.Eq
    in
    (sparse_row terms, op, Rat.of_int bound)
  in
  {
    Simplex.num_vars = t.count;
    maximize = dense t.objective;
    constraints = List.rev_map convert t.constraints @ List.map convert extra;
  }

let solve_relaxation ?extra ?on_fallback t =
  Simplex.solve ?on_fallback (to_lp ?extra t)

let vars t = List.init t.count Fun.id

let eval_terms terms point =
  List.fold_left (fun acc (c, v) -> acc + (c * point.(v))) 0 terms

let slack { terms; relation; bound; _ } point =
  let lhs = eval_terms terms point in
  match relation with Le -> bound - lhs | Ge -> lhs - bound | Eq -> 0

let binding cstr point = slack cstr point = 0

let pp ppf t =
  let pp_term ppf (c, v) =
    if c = 1 then Fmt.string ppf (name t v)
    else Fmt.pf ppf "%d %s" c (name t v)
  in
  let pp_terms = Fmt.(list ~sep:(any " + ") pp_term) in
  let pp_rel ppf = function
    | Le -> Fmt.string ppf "<="
    | Ge -> Fmt.string ppf ">="
    | Eq -> Fmt.string ppf "="
  in
  Fmt.pf ppf "@[<v>maximize %a@,subject to:@," pp_terms t.objective;
  List.iter
    (fun c ->
      let label = Lazy.force c.label in
      Fmt.pf ppf "  %a %a %d%s@," pp_terms c.terms pp_rel c.relation c.bound
        (if label = "" then "" else "    ; " ^ label))
    (constraints t);
  Fmt.pf ppf "@]"
