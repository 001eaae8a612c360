(* Two-bit saturating-counter branch predictor.

   The ARM1136 executes a branch in 0-7 cycles depending on prediction
   outcome when the predictor is enabled, and in a constant 5 cycles when it
   is disabled (Section 5.1).  The paper's static analysis cannot model the
   predictor, so it is disabled both in the model and on the hardware, and
   Figure 9 quantifies the effect of turning it back on.  We model a classic
   bimodal predictor: a table of 2-bit counters indexed by the branch PC. *)

type t = {
  table : int array;  (* 2-bit counters: 0,1 = predict not-taken; 2,3 = taken *)
  mask : int;
  mutable predictions : int;
  mutable mispredictions : int;
}

let create ?(entries = 128) () =
  assert (entries > 0 && entries land (entries - 1) = 0);
  {
    table = Array.make entries 1;
    (* weakly not-taken after reset *)
    mask = entries - 1;
    predictions = 0;
    mispredictions = 0;
  }

let index t pc = pc lsr 2 land t.mask

(* Predict, update the counter, and report whether the prediction was
   correct. *)
let predict_and_update t ~pc ~taken =
  let i = index t pc in
  let counter = t.table.(i) in
  let predicted_taken = counter >= 2 in
  let correct = predicted_taken = taken in
  t.predictions <- t.predictions + 1;
  if not correct then t.mispredictions <- t.mispredictions + 1;
  let counter' =
    if taken then Int.min 3 (counter + 1) else Int.max 0 (counter - 1)
  in
  t.table.(i) <- counter';
  correct

let reset t =
  Array.fill t.table 0 (Array.length t.table) 1;
  t.predictions <- 0;
  t.mispredictions <- 0

let predictions t = t.predictions
let mispredictions t = t.mispredictions
