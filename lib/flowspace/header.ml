type t = {
  schema : Schema.t;
  values : int64 array;
  lanes : int array;
  key_lo : int64;
  key_hi : int64;
  key_exact : bool;
  khash : int;
}

let truncate bits v =
  Int64.logand v (Int64.shift_right_logical Int64.minus_one (64 - bits))

(* Avalanche a 64-bit lane into an accumulator (splitmix64 finalizer). *)
let mix64 h v =
  let h = Int64.logxor h v in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let lane_bits = 63
let lane_count schema = max 1 ((Schema.total_bits schema + lane_bits - 1) / lane_bits)

(* Concatenate the fields, little-endian by schema position, into 63-bit
   int lanes: field [i] starts at bit [sum of earlier widths], and a field
   straddling a lane boundary spills its high bits into the next lane.
   The layout is exact for any schema, so the same packing serves headers
   and predicate masks/values (tuple-space search probes with one [land]
   per lane). *)
let pack_lanes schema values =
  let lanes = Array.make (lane_count schema) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun i v ->
      let v = Int64.to_int v and lane = !pos / lane_bits and off = !pos mod lane_bits in
      lanes.(lane) <- lanes.(lane) lor (v lsl off);
      let bits = Schema.field_bits schema i in
      if off + bits > lane_bits then
        lanes.(lane + 1) <- lanes.(lane + 1) lor (v lsr (lane_bits - off));
      pos := !pos + bits)
    values;
  lanes

let lane64 lanes i =
  if i < Array.length lanes then Int64.logand (Int64.of_int lanes.(i)) Int64.max_int
  else 0L

(* Schemas up to two lanes (126 bits, the ACL 5-tuple's 104 included)
   expose lanes 0 and 1 as the injective [(key_lo, key_hi)] pair, so the
   per-packet paths (cachesim interning, flow-record cache, monitor)
   compare two ints instead of walking the values array.  Wider schemas
   fold their values into a mixed fingerprint instead and compare values
   on collision. *)
let key_of schema values lanes =
  let exact = Schema.total_bits schema <= 2 * lane_bits in
  let lo, hi =
    if exact then (lane64 lanes 0, lane64 lanes 1)
    else
      Array.fold_left
        (fun (lo, hi) v ->
          let lo = mix64 lo v in
          (lo, mix64 (Int64.logxor hi 0x9e3779b97f4a7c15L) lo))
        (0L, 0L) values
  in
  let khash = Int64.to_int (mix64 (mix64 0x9e3779b97f4a7c15L lo) hi) land max_int in
  (lo, hi, exact, khash)

let make schema values =
  if Array.length values <> Schema.arity schema then
    invalid_arg "Header.make: arity mismatch";
  let values =
    Array.mapi (fun i v -> truncate (Schema.field_bits schema i) v) values
  in
  let lanes = pack_lanes schema values in
  let key_lo, key_hi, key_exact, khash = key_of schema values lanes in
  { schema; values; lanes; key_lo; key_hi; key_exact; khash }

let of_fields schema assoc =
  let values =
    Array.init (Schema.arity schema) (fun i ->
        match List.assoc_opt (Schema.field_name schema i) assoc with
        | Some v -> v
        | None -> 0L)
  in
  List.iter (fun (name, _) -> ignore (Schema.index schema name)) assoc;
  make schema values

let schema t = t.schema
let field t i = t.values.(i)
let get t name = t.values.(Schema.index t.schema name)
let values t = Array.copy t.values
let lanes t = t.lanes
let key_lo t = t.key_lo
let key_hi t = t.key_hi
let key_exact t = t.key_exact

let equal a b =
  a.khash = b.khash
  && (a.schema == b.schema || Schema.equal a.schema b.schema)
  &&
  if a.key_exact && b.key_exact then
    Int64.equal a.key_lo b.key_lo && Int64.equal a.key_hi b.key_hi
  else Array.for_all2 Int64.equal a.values b.values

let compare a b =
  let rec go i =
    if i >= Array.length a.values then 0
    else
      let c = Int64.compare a.values.(i) b.values.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash t = t.khash

let pp ppf t =
  Format.fprintf ppf "@[<h>{";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%s=%Ld" (Schema.field_name t.schema i) v)
    t.values;
  Format.fprintf ppf "}@]"
