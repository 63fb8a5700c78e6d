type t = { schema : Schema.t; fields : Ternary.t array }

let check schema fields =
  if Array.length fields <> Schema.arity schema then
    invalid_arg "Pred: arity mismatch";
  Array.iteri
    (fun i f ->
      if Ternary.width f <> Schema.field_bits schema i then
        invalid_arg
          (Printf.sprintf "Pred: field %s expects width %d, got %d"
             (Schema.field_name schema i)
             (Schema.field_bits schema i) (Ternary.width f)))
    fields

let any schema =
  {
    schema;
    fields = Array.init (Schema.arity schema) (fun i -> Ternary.any (Schema.field_bits schema i));
  }

let make schema l =
  let fields = Array.of_list l in
  check schema fields;
  { schema; fields }

let of_fields schema assoc =
  let base = any schema in
  let fields = Array.copy base.fields in
  List.iter
    (fun (name, tern) ->
      let i = Schema.index schema name in
      fields.(i) <- tern)
    assoc;
  check schema fields;
  { schema; fields }

let of_strings schema assoc =
  of_fields schema (List.map (fun (n, s) -> (n, Ternary.of_string s)) assoc)

let with_field t i f =
  if Ternary.width f <> Schema.field_bits t.schema i then
    invalid_arg "Pred.with_field: width mismatch";
  let fields = Array.copy t.fields in
  fields.(i) <- f;
  { t with fields }

let schema t = t.schema
let field t i = t.fields.(i)
let arity t = Array.length t.fields

let pp ppf t =
  Format.fprintf ppf "@[<h>[";
  Array.iteri
    (fun i f ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%s=%a" (Schema.field_name t.schema i) Ternary.pp f)
    t.fields;
  Format.fprintf ppf "]@]"

let to_string t = Format.asprintf "%a" pp t

let equal a b =
  Schema.equal a.schema b.schema && Array.for_all2 Ternary.equal a.fields b.fields

let compare a b =
  let rec go i =
    if i >= Array.length a.fields then 0
    else
      let c = Ternary.compare a.fields.(i) b.fields.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash t = Hashtbl.hash (Array.map Ternary.hash t.fields)

(* A loop, not a local recursive function: this runs per packet (hit
   attribution, region tests, linear classifier scans) and a closure
   over [t] and [h] would allocate on every call. *)
let matches t h =
  let fields = t.fields in
  let n = Array.length fields in
  let i = ref 0 in
  while !i < n && Ternary.matches (Array.unsafe_get fields !i) (Header.field h !i) do
    incr i
  done;
  !i = n

let is_any t = Array.for_all Ternary.is_any t.fields

let specified_bits t =
  Array.fold_left (fun acc f -> acc + Ternary.specified_bits f) 0 t.fields

let size_log2 t = Array.fold_left (fun acc f -> acc + Ternary.wildcard_bits f) 0 t.fields
let size t = Float.pow 2. (float_of_int (size_log2 t))

let inter a b =
  let n = Array.length a.fields in
  let out = Array.make n a.fields.(0) in
  let rec go i =
    if i >= n then Some { a with fields = out }
    else
      match Ternary.inter a.fields.(i) b.fields.(i) with
      | None -> None
      | Some f ->
          out.(i) <- f;
          go (i + 1)
  in
  go 0

let overlaps a b = Option.is_some (inter a b)
let subsumes a b = Array.for_all2 Ternary.subsumes a.fields b.fields

(* Exact-union merge of hyper-rectangles: all fields equal except one,
   where the two ternary values are buddies.  The result covers exactly
   the union of the operands, so replacing both rules by the merged rule
   can never change which headers are covered. *)
let buddy_union a b =
  let n = Array.length a.fields in
  let rec go i merged =
    if i >= n then Option.map (fun (j, f) ->
        let fields = Array.copy a.fields in
        fields.(j) <- f;
        { a with fields }) merged
    else if Ternary.equal a.fields.(i) b.fields.(i) then go (i + 1) merged
    else
      match (merged, Ternary.buddy_union a.fields.(i) b.fields.(i)) with
      | None, Some f -> go (i + 1) (Some (i, f))
      | _, _ -> None (* two differing fields, or not buddies *)
  in
  go 0 None

(* Disjoint tuple subtraction: the piece for field [i] combines the
   fields before [i] clipped to [b], a disjoint piece of [a_i - b_i] at
   [i], and [a]'s own fields after [i].  Pieces from different [i] differ
   on field [i] (one is inside [b_i], the other outside), so the whole
   cover is pairwise disjoint. *)
let subtract a b =
  match inter a b with
  | None -> [ a ]
  | Some _ ->
      let n = Array.length a.fields in
      let rec go i acc =
        if i >= n then List.rev acc
        else
          let pieces = Ternary.subtract a.fields.(i) b.fields.(i) in
          let acc =
            List.fold_left
              (fun acc piece ->
                let fields =
                  Array.mapi
                    (fun j f ->
                      if j < i then Option.get (Ternary.inter f b.fields.(j))
                      else if j = i then piece
                      else f)
                    a.fields
                in
                { a with fields } :: acc)
              acc pieces
          in
          go (i + 1) acc
      in
      go 0 []

let subtract_all a bs =
  List.fold_left
    (fun pieces b -> List.concat_map (fun p -> subtract p b) pieces)
    [ a ] bs

(* Witness search for a - union(bs) != empty: clip away one blocker at a
   time, branching over the disjoint pieces, bailing out at the first
   piece that survives every blocker. *)
let diff_nonempty a bs =
  let rec go piece = function
    | [] -> true
    | b :: rest ->
        if not (overlaps piece b) then go piece rest
        else List.exists (fun q -> go q rest) (subtract piece b)
  in
  go a bs

let clip_to_holder a h b =
  if not (matches a h) then invalid_arg "Pred.clip_to_holder: header outside a";
  if matches b h then invalid_arg "Pred.clip_to_holder: header inside b";
  match List.find_opt (fun q -> matches q h) (subtract a b) with
  | Some q -> q
  | None -> invalid_arg "Pred.clip_to_holder: no piece holds the header"

let split p fi bit =
  match Ternary.split p.fields.(fi) bit with
  | None -> None
  | Some (lo, hi) -> Some (with_field p fi lo, with_field p fi hi)

let random_point rand_bits t =
  Header.make t.schema (Array.map (Ternary.random_point rand_bits) t.fields)

let enumerate ?(limit = 256) t =
  (* Cartesian product of per-field enumerations, cut off at [limit]. *)
  let rec go i acc =
    if i >= Array.length t.fields then acc
    else
      let vals = Ternary.enumerate ~limit t.fields.(i) in
      let acc =
        List.concat_map (fun partial -> List.map (fun v -> v :: partial) vals) acc
      in
      let acc = List.filteri (fun k _ -> k < limit) acc in
      go (i + 1) acc
  in
  go 0 [ [] ]
  |> List.map (fun rev_fields -> Header.make t.schema (Array.of_list (List.rev rev_fields)))
