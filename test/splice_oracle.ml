(* The list-walking cache splicer, kept as the reference the compiled
   serve path ([Splice]) is differentially tested against.  Every
   function re-derives its answer from the classifier's rule list on each
   call: a linear first match, the whole table filtered for blockers, the
   rank found by a second walk and the dependency closure recomputed per
   query.  Slow, and obviously right. *)

type piece = { origin : Rule.t; pred : Pred.t }

(* One subtraction step: the piece of [a - b] holding [h], picked out of
   the full disjoint cover. *)
let clip_to_holder a h b =
  match List.find_opt (fun q -> Pred.matches q h) (Pred.subtract a b) with
  | Some q -> q
  | None -> invalid_arg "Splice_oracle.clip_to_holder: no piece holds the header"

let overlaps a b = Option.is_some (Pred.inter a b)

let for_header table h =
  match Classifier.first_match table h with
  | None -> None
  | Some origin ->
      let blockers =
        Classifier.rules table
        |> List.filter (fun r -> Rule.beats r origin && Rule.overlaps r origin)
        |> List.map (fun (r : Rule.t) -> r.pred)
      in
      let pred =
        List.fold_left
          (fun piece b -> if overlaps piece b then clip_to_holder piece h b else piece)
          origin.Rule.pred blockers
      in
      Some { origin; pred }

let cache_priority table (origin : Rule.t) =
  let rec rank n = function
    | [] -> 1
    | (r : Rule.t) :: rest -> if r.id = origin.id then n else rank (n - 1) rest
  in
  rank (Classifier.length table) (Classifier.rules table)

let closure table (r : Rule.t) =
  let seen = Hashtbl.create 16 in
  let rec visit (r : Rule.t) =
    if not (Hashtbl.mem seen r.id) then begin
      Hashtbl.add seen r.id ();
      List.iter visit (Classifier.direct_dependencies table r)
    end
  in
  visit r;
  seen

let cover_set table r =
  let seen = closure table r in
  List.filter (fun (x : Rule.t) -> Hashtbl.mem seen x.id) (Classifier.rules table)

let dependent_set_cost table r = Hashtbl.length (closure table r)

let pieces_of_rule table (r : Rule.t) =
  let blockers =
    Classifier.rules table
    |> List.filter (fun r' -> Rule.beats r' r && Rule.overlaps r' r)
    |> List.map (fun (r' : Rule.t) -> r'.pred)
  in
  Pred.subtract_all r.pred blockers
