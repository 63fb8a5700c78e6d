(** Concrete packet headers: one point of the flowspace.

    A header assigns a concrete value to every field of a schema.  This is
    the thing a switch matches against its TCAM banks. *)

type t

val make : Schema.t -> int64 array -> t
(** [make schema values] builds a header.  Each value is truncated to its
    field's width.  @raise Invalid_argument on arity mismatch. *)

val of_fields : Schema.t -> (string * int64) list -> t
(** Named construction; unnamed fields default to [0].
    @raise Not_found on an unknown field name. *)

val schema : t -> Schema.t
val field : t -> int -> int64
val get : t -> string -> int64
val values : t -> int64 array

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Precomputed at {!make}; constant-time on every per-packet path. *)

(** {2 Int-packed key}

    [make] packs the header's fields, little-endian by schema position,
    into 63-bit int {e lanes}: {!lane_count} of them, with a field that
    straddles a lane boundary spilling its high bits into the next lane.
    The packing is exact for every schema, so tuple-space search
    ([Tss]) masks a header with one [land] per lane.  Two lanes cover
    schemas up to 126 bits (the ACL 5-tuple's 104 included);
    [openflow_basic]'s 136 bits take a third.

    For schemas of at most two lanes ({!key_exact} is [true]), lanes 0
    and 1 are also exposed as the [(key_lo, key_hi)] pair: two headers of
    the same schema are equal iff their pairs are, so hot paths can key
    hash tables on two ints with no per-packet allocation.  Wider
    schemas get a mixed fingerprint in [(key_lo, key_hi)] instead —
    still a valid hash, but not injective. *)

val lane_count : Schema.t -> int
(** Number of 63-bit lanes a header of this schema packs into (at
    least 1). *)

val pack_lanes : Schema.t -> int64 array -> int array
(** The lane packing of one value per field (already within each
    field's width).  Packing a predicate's per-field masks or values
    gives lanes aligned with every header's {!lanes}. *)

val pack_into : Schema.t -> int array -> int64 array -> unit
(** [pack_into schema lanes values]: {!pack_lanes} of [values], written
    over [lanes] (of length {!lane_count}) instead of a fresh array. *)

val lanes : t -> int array
(** The header's packed lanes.  Shared, not copied: callers must not
    mutate it. *)

val key_lo : t -> int64
val key_hi : t -> int64
val key_exact : t -> bool
val pp : Format.formatter -> t -> unit
