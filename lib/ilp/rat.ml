(* Exact rational arithmetic over OCaml's native 63-bit integers.

   The IPET problems produced by the WCET analysis are small (hundreds of
   variables, coefficients bounded by cycle counts around 10^5), so native
   integers with gcd normalisation suffice.  All operations detect overflow
   and raise [Overflow] rather than silently wrapping; this keeps the solver
   sound (an exception, never a wrong answer).  [min_int] counts as
   overflow wherever it could appear (a sum, a product, [make], [of_int],
   [neg]): its negation wraps to itself, so admitting it would let [neg],
   [sub], [mul] by -1 and [div] return wrong-signed values or break the
   [den > 0] invariant.  zarith is not available in
   this environment, which DESIGN.md records as the reason for this module. *)

exception Overflow

type t = { num : int; den : int }
(* Invariant: den > 0 and gcd(|num|, den) = 1; zero is 0/1. *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a || p = min_int then raise Overflow else p

let checked_add a b =
  let s = a + b in
  (* Overflow iff operands share a sign and the sum's sign differs. *)
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) || s = min_int
  then raise Overflow
  else s

let make num den =
  if den = 0 then invalid_arg "Rat.make: zero denominator";
  if num = min_int || den = min_int then raise Overflow;
  let sign = if den < 0 then -1 else 1 in
  let num = num * sign and den = den * sign in
  if num = 0 then { num = 0; den = 1 }
  else
    let g = gcd (abs num) den in
    { num = num / g; den = den / g }

let zero = { num = 0; den = 1 }
let one = { num = 1; den = 1 }
let minus_one = { num = -1; den = 1 }
let of_int n = if n = min_int then raise Overflow else { num = n; den = 1 }

let num t = t.num

let add a b =
  (* Integer fast path: the simplex tableaux this module serves stay
     integral through most pivots, so skip the gcd machinery when both
     operands have denominator 1 (the result is already normalised). *)
  if a.den = 1 && b.den = 1 then { num = checked_add a.num b.num; den = 1 }
  else
    let g = gcd a.den b.den in
    let da = a.den / g and db = b.den / g in
    let num = checked_add (checked_mul a.num db) (checked_mul b.num da) in
    make num (checked_mul a.den db)

let neg a = if a.num = min_int then raise Overflow else { a with num = -a.num }
let sub a b = add a (neg b)

let mul a b =
  if a.den = 1 && b.den = 1 then { num = checked_mul a.num b.num; den = 1 }
  else
  (* Cross-cancel before multiplying to delay overflow. *)
  let g1 = gcd (abs a.num) b.den and g2 = gcd (abs b.num) a.den in
  let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
  make
    (checked_mul (a.num / g1) (b.num / g2))
    (checked_mul (a.den / g2) (b.den / g1))

let div a b =
  if b.num = 0 then invalid_arg "Rat.div: division by zero";
  mul a { num = b.den * (if b.num < 0 then -1 else 1); den = abs b.num }

let inv a = div one a

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  Stdlib.compare (checked_mul a.num b.den) (checked_mul b.num a.den)

let equal a b = a.num = b.num && a.den = b.den
let sign a = Stdlib.compare a.num 0
let is_zero a = a.num = 0
let is_integer a = a.den = 1
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let ge a b = compare a b >= 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b

let floor a =
  if a.num >= 0 then a.num / a.den
  else
    let q = a.num / a.den in
    if q * a.den = a.num then q else q - 1

let ceil a = -floor (neg a)

let to_float a = float_of_int a.num /. float_of_int a.den

let to_int_exn a =
  if a.den <> 1 then invalid_arg "Rat.to_int_exn: not an integer" else a.num

let pp ppf a =
  if a.den = 1 then Fmt.int ppf a.num else Fmt.pf ppf "%d/%d" a.num a.den
