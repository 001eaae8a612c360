(* Abstract cache state for must-analysis.

   Following Section 5.1 of the paper, the 4-way set-associative L1 caches
   are analysed as if they were direct-mapped caches of one way's size:
   "the most recently accessed cache line in any cache set is guaranteed to
   reside in the cache when next accessed".  The must-state therefore maps
   every set index to the one line tag that is guaranteed present, or to
   nothing.

   Join (at control-flow merges) is intersection: a line is guaranteed only
   if it is guaranteed on all incoming paths.  [clobber] forgets everything;
   it models a write to a statically unknown address, which could evict any
   set.  Pinned lines are tracked separately and are never evicted. *)

type t = {
  line_size : int;
  sets : int;
  tags : int array;  (* tags.(set) = guaranteed tag, or -1 *)
  pinned : (int, unit) Hashtbl.t;  (* line addresses locked in the cache *)
}

let create ~line_size ~sets ~pinned_lines =
  let pinned = Hashtbl.create 16 in
  List.iter
    (fun addr -> Hashtbl.replace pinned (addr / line_size * line_size) ())
    pinned_lines;
  { line_size; sets; tags = Array.make sets (-1); pinned }

(* A copy shares the (read-only) pin table: only the tags are state. *)
let copy t = { t with tags = Array.copy t.tags }

let blit ~src ~dst =
  assert (src.sets = dst.sets);
  Array.blit src.tags 0 dst.tags 0 src.sets

let set_of t addr = addr / t.line_size mod t.sets
let tag_of t addr = addr / t.line_size / t.sets
let is_pinned t addr = Hashtbl.mem t.pinned (addr / t.line_size * t.line_size)

(* Is the line containing [addr] guaranteed to be cached? *)
let must_hit t addr =
  is_pinned t addr || t.tags.(set_of t addr) = tag_of t addr

(* Record an access: afterwards the line is guaranteed present (it was just
   loaded).  Pinned lines do not occupy ordinary sets. *)
let access t addr =
  if not (is_pinned t addr) then t.tags.(set_of t addr) <- tag_of t addr

let clobber t = Array.fill t.tags 0 t.sets (-1)

(* Must-join, in place: [into] keeps only lines guaranteed in both. *)
let join ~into b =
  assert (into.line_size = b.line_size && into.sets = b.sets);
  for i = 0 to into.sets - 1 do
    if into.tags.(i) <> b.tags.(i) then into.tags.(i) <- -1
  done

let rec same_from a b i =
  i = a.sets || (a.tags.(i) = b.tags.(i) && same_from a b (i + 1))

let equal a b = a.sets = b.sets && same_from a b 0
