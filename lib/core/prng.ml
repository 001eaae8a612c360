(* Splitmix64 (Steele, Lea & Flood, OOPSLA'14): a 64-bit state advanced by
   a golden-ratio increment and finalised through two xor-multiply rounds.
   Chosen because it is tiny, fast, passes BigCrush, and — critically for
   the soak campaigns — supports cheap stream splitting, so every shard,
   tenant and device owns an independent deterministic sequence derived
   from one seed. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let of_state s = { state = s }
let state t = t.state

let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let int t bound =
  if bound <= 0 then 0
  else
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next64 t) 1) (Int64.of_int bound))

let bool t = Int64.logand (next64 t) 1L = 1L

let float t =
  (* 53 high bits, scaled into [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (next64 t) 11) *. 0x1p-53

(* Child-stream derivation: re-mix the parent output under a distinct odd
   gamma so the child state lands far from the parent trajectory.  (The
   full splitmix scheme also splits the gamma; a fixed gamma with a
   re-mixed state is sufficient at the scale of these campaigns and keeps
   streams single-word.) *)
let child_of raw index =
  of_state
    (mix
       (Int64.add
          (Int64.logxor raw 0x5851F42D4C957F2DL)
          (Int64.mul (Int64.of_int index) golden_gamma)))

let split t = child_of (next64 t) 0
let split_at t i = child_of (mix (Int64.add t.state golden_gamma)) i
