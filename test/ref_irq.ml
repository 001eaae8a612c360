(* A naive reference model of the interrupt controller in [Sel4.Ctx], for
   differential tests.

   Pending lines are a list of (line, assert cycle, ticket) and armed
   lines a list of (line, fire cycle, ticket); every raise and arm draws
   the next ticket.  Delivery takes the pending entry with the smallest
   (assert cycle, ticket), promotion moves fired entries across in
   (fire cycle, ticket) order, and nothing is cached or bit-encoded. *)

type entry = { line : int; at : int; ticket : int }

type t = {
  mutable pending : entry list;
  mutable armed : entry list;
  mutable tickets : int;
}

let create () = { pending = []; armed = []; tickets = 0 }

let draw r =
  r.tickets <- r.tickets + 1;
  r.tickets

let before a b = a.at < b.at || (a.at = b.at && a.ticket < b.ticket)

let earliest = function
  | [] -> None
  | e :: rest ->
      Some (List.fold_left (fun a b -> if before b a then b else a) e rest)

let has line l = List.exists (fun e -> e.line = line) l
let without line l = List.filter (fun e -> e.line <> line) l

(* A pending line absorbs a new assertion. *)
let raise_irq r ~now line =
  let ticket = draw r in
  if not (has line r.pending) then
    r.pending <- { line; at = now; ticket } :: r.pending

(* A line holds one fire cycle; re-arming keeps the earlier. *)
let arm r line ~fire =
  let ticket = draw r in
  match List.find_opt (fun e -> e.line = line) r.armed with
  | Some e when e.at <= fire -> ()
  | _ -> r.armed <- { line; at = fire; ticket } :: without line r.armed

let promote r ~now =
  let fired, waiting = List.partition (fun e -> e.at <= now) r.armed in
  r.armed <- waiting;
  List.iter
    (fun e -> if not (has e.line r.pending) then r.pending <- e :: r.pending)
    (List.sort (fun a b -> if before a b then -1 else 1) fired)

(* The delivered line and its assert cycle. *)
let pop r =
  match earliest r.pending with
  | None -> None
  | Some e ->
      r.pending <- without e.line r.pending;
      Some (e.line, e.at)

let irq_pending r ~now =
  r.pending <> [] || List.exists (fun e -> e.at <= now) r.armed

let next_armed r =
  Option.map (fun e -> (e.at, e.line)) (earliest r.armed)
