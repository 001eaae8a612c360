type kind = Resched | Tlb_shootdown

(* Lines 30 and 31 sit at the top of the 32-line space; device scenarios
   use lines 1-5 and the timer owns 0, so the IPI class never collides. *)
let resched_line = 30
let shootdown_line = 31

let line_of = function Resched -> resched_line | Tlb_shootdown -> shootdown_line

let kind_of_line l =
  if l = resched_line then Some Resched
  else if l = shootdown_line then Some Tlb_shootdown
  else None

let kind_name = function Resched -> "resched" | Tlb_shootdown -> "tlb_shootdown"

let kind_index = function Resched -> 0 | Tlb_shootdown -> 1

type t = {
  cores : int;
  (* outstanding.(dst).(kind): an accepted IPI is on the wire or pending *)
  outstanding : bool array array;
  mutable sent : int;
  mutable coalesced : int;
  mutable delivered : int;
  mutable cancelled : int;
  sent_kind : int array;  (** by kind index *)
  sent_to : int array;  (** accepted, by destination *)
  delivered_on : int array;
  cancelled_on : int array;
}

let create ~cores =
  if cores < 1 then invalid_arg "Smp.Fabric.create: cores must be >= 1";
  {
    cores;
    outstanding = Array.init cores (fun _ -> Array.make 2 false);
    sent = 0;
    coalesced = 0;
    delivered = 0;
    cancelled = 0;
    sent_kind = Array.make 2 0;
    sent_to = Array.make cores 0;
    delivered_on = Array.make cores 0;
    cancelled_on = Array.make cores 0;
  }

let send t ~src ~dst kind =
  if src = dst then invalid_arg "Smp.Fabric.send: src = dst";
  if src < 0 || src >= t.cores || dst < 0 || dst >= t.cores then
    invalid_arg "Smp.Fabric.send: core out of range";
  let k = kind_index kind in
  if t.outstanding.(dst).(k) then begin
    t.coalesced <- t.coalesced + 1;
    false
  end
  else begin
    t.outstanding.(dst).(k) <- true;
    t.sent <- t.sent + 1;
    t.sent_kind.(k) <- t.sent_kind.(k) + 1;
    t.sent_to.(dst) <- t.sent_to.(dst) + 1;
    true
  end

let note_delivered t ~dst kind =
  let k = kind_index kind in
  if not t.outstanding.(dst).(k) then
    invalid_arg
      (Fmt.str "Smp.Fabric.note_delivered: no outstanding %s toward core %d"
         (kind_name kind) dst);
  t.outstanding.(dst).(k) <- false;
  t.delivered <- t.delivered + 1;
  t.delivered_on.(dst) <- t.delivered_on.(dst) + 1

let cancel_outstanding t ~dst =
  let n = ref 0 in
  Array.iteri
    (fun k o ->
      if o then begin
        t.outstanding.(dst).(k) <- false;
        incr n
      end)
    t.outstanding.(dst);
  t.cancelled <- t.cancelled + !n;
  t.cancelled_on.(dst) <- t.cancelled_on.(dst) + !n;
  !n

let sent t = t.sent
let coalesced t = t.coalesced
let delivered t = t.delivered
let cancelled t = t.cancelled

let in_flight t =
  let n = ref 0 in
  Array.iter (Array.iter (fun o -> if o then incr n)) t.outstanding;
  !n

let check ~final t =
  let err fmt = Fmt.kstr Result.error fmt in
  let fl = in_flight t in
  if t.sent < 0 || t.delivered < 0 || t.cancelled < 0 || t.coalesced < 0 then
    err "negative fabric counter"
  else if t.sent <> t.delivered + t.cancelled + fl then
    err "fabric accounting: sent %d <> delivered %d + cancelled %d + in-flight %d"
      t.sent t.delivered t.cancelled fl
  else if final && fl > 0 then
    err "fabric: %d IPI(s) neither delivered nor cancelled at end of run" fl
  else begin
    let bad = ref None in
    for dst = 0 to t.cores - 1 do
      let out =
        (if t.outstanding.(dst).(0) then 1 else 0)
        + if t.outstanding.(dst).(1) then 1 else 0
      in
      if t.sent_to.(dst) <> t.delivered_on.(dst) + t.cancelled_on.(dst) + out
      then
        bad :=
          Some
            (Fmt.str
               "fabric core %d: sent-to %d <> delivered %d + cancelled %d + \
                outstanding %d"
               dst t.sent_to.(dst) t.delivered_on.(dst) t.cancelled_on.(dst)
               out)
    done;
    match !bad with Some m -> Error m | None -> Ok ()
  end
