type piece = { origin : Rule.t; pred : Pred.t }

(* A partition table compiled for serving misses.  Everything a serve
   needs is indexed by the rule's table position: the first match comes
   from the tuple-space index, the rank from the position, and each
   origin's blocker list and cover-set closure are computed on its first
   serve and kept.  Edges point to earlier positions only (a blocker or
   dependency always beats its dependent), so no per-origin work ever
   reads another origin's unfinished state. *)
type t = {
  rules : Rule.t array; (* table order *)
  index : Rule.t Tss.t;
  position : (int, int) Hashtbl.t; (* rule id -> table position *)
  blockers : int array array;
      (* per position: earlier positions whose predicate overlaps it, in
         table order; [unset] until first asked *)
  closure : int array array;
      (* per position: the cover set (itself plus the transitive closure
         of its direct dependencies), ascending; [unset] until asked *)
}

(* Physical sentinel for "not computed yet": an empty array is a valid
   blocker list, so emptiness cannot mark absence. *)
let unset = [| -1 |]

let compile table =
  let rules = Array.of_list (Classifier.rules table) in
  let n = Array.length rules in
  let position = Hashtbl.create (max 16 n) in
  Array.iteri (fun i (r : Rule.t) -> Hashtbl.replace position r.id i) rules;
  {
    rules;
    index = Tss.of_classifier table;
    position;
    blockers = Array.make n unset;
    closure = Array.make n unset;
  }

let index t = t.index

let position_exn t (r : Rule.t) =
  match Hashtbl.find t.position r.id with
  | i -> i
  | exception Not_found -> invalid_arg "Splice: rule not in the compiled table"

(* Table order is [Rule.compare_priority] order with unique ids, so the
   rules that beat position [i] are exactly the positions before it. *)
let blockers t i =
  let b = t.blockers.(i) in
  if b != unset then b
  else begin
    let p = t.rules.(i).Rule.pred in
    let acc = ref [] in
    for j = i - 1 downto 0 do
      if Pred.overlaps t.rules.(j).Rule.pred p then acc := j :: !acc
    done;
    let b = Array.of_list !acc in
    t.blockers.(i) <- b;
    b
  end

(* Clip the winner's predicate against each higher-priority overlap,
   keeping only the disjoint fragment containing the packet.  One
   hyper-rectangle survives each step, so the walk is linear in the
   blocker count — materialising the full disjoint cover (which can
   fragment combinatorially) is never needed.  Pieces spliced from
   different headers of the same rule may overlap each other, which is
   harmless: they carry the same action.  Pieces of different rules are
   always disjoint (each excludes the other's whole predicate). *)
let for_header t h =
  match Tss.find t.index h with
  | None -> None
  | Some origin ->
      let b = blockers t (Hashtbl.find t.position origin.Rule.id) in
      let pred = ref origin.Rule.pred in
      for k = 0 to Array.length b - 1 do
        let bp = t.rules.(b.(k)).Rule.pred in
        if Pred.overlaps !pred bp then pred := Pred.clip_to_holder !pred h bp
      done;
      Some { origin; pred = !pred }

(* Cache-rule priority: the origin's rank in its partition table, counted
   from the bottom (the last rule ranks 1, the first ranks N).  Two
   properties make this the right priority space for the ingress cache:

   - it is strictly decreasing along [Rule.compare_priority] table order,
     so cached copies of whole rules (cover sets) beat each other exactly
     as the authority table would — ties included, because table order
     already breaks priority ties by id;
   - a spliced fragment excludes every rule that beats its origin, so
     giving the fragment its origin's rank can never steal a packet from
     a higher-ranked cached rule (no such rule overlaps the fragment),
     while correctly beating any lower-ranked cover rule it overlaps.

   Ranks start at 1; the exact-match fallbacks installed by the degraded
   controller path keep priority 0 and thus never outrank a spliced or
   cover entry.  Ranks from different partition tables never interact:
   partition tables are clipped to disjoint regions. *)
let cache_priority t (origin : Rule.t) =
  match Hashtbl.find t.position origin.id with
  | i -> Array.length t.rules - i
  | exception Not_found -> 1 (* unknown origin: floor rank, still above exact fallbacks *)

let cache_rule ~next_id t piece =
  Rule.make ~id:(next_id ())
    ~priority:(cache_priority t piece.origin)
    piece.pred piece.origin.Rule.action

(* [b] is a direct dependency of [r] when some header is matched by both
   [r] and [b] but by no rule strictly between them — the same test as
   [Classifier.direct_dependencies], over the cached blocker list. *)
let dependency_positions t i =
  let b = blockers t i in
  let p = t.rules.(i).Rule.pred in
  let deps = ref [] in
  for k = Array.length b - 1 downto 0 do
    let ov = Option.get (Pred.inter p t.rules.(b.(k)).Rule.pred) in
    let between = ref [] in
    for m = Array.length b - 1 downto k + 1 do
      between := t.rules.(b.(m)).Rule.pred :: !between
    done;
    if Pred.diff_nonempty ov !between then deps := b.(k) :: !deps
  done;
  !deps

(* The CacheFlow-style cover set of a rule: the rule itself plus the
   transitive closure of its direct dependencies, in table order (best
   first).  Installing every member at its own rank reproduces the
   authority table's semantics over the union of their predicates: any
   header matching a member is decided by the highest-ranked cached
   member containing it, which the closure property makes the same rule
   the full table would pick. *)
let closure t i =
  let c = t.closure.(i) in
  if c != unset then c
  else begin
    let seen = Array.make (i + 1) false in
    let rec visit j =
      if not seen.(j) then begin
        seen.(j) <- true;
        List.iter visit (dependency_positions t j)
      end
    in
    visit i;
    let acc = ref [] in
    for j = i downto 0 do
      if seen.(j) then acc := j :: !acc
    done;
    let c = Array.of_list !acc in
    t.closure.(i) <- c;
    c
  end

let direct_dependencies t r =
  List.map (fun j -> t.rules.(j)) (dependency_positions t (position_exn t r))

let cover_set t r =
  let c = closure t (position_exn t r) in
  let acc = ref [] in
  for k = Array.length c - 1 downto 0 do
    acc := t.rules.(c.(k)) :: !acc
  done;
  !acc

let dependent_set_cost t r = Array.length (closure t (position_exn t r))

let pieces_of_rule t (r : Rule.t) =
  let b = blockers t (position_exn t r) in
  Pred.subtract_all r.pred (Array.to_list (Array.map (fun j -> t.rules.(j).Rule.pred) b))
