(** A functional model of a TCAM bank.

    Capacity-bounded, priority-ordered ternary match table with per-entry
    statistics (packet counts, install/last-hit times) and idle/hard
    timeouts — the state a hardware switch exposes to DIFANE.  The model
    is mutable (a switch's table is inherently stateful) but confined:
    all observation goes through the accessors below.

    The per-packet path is sub-linear and allocation-free.  Entries are
    indexed by tuple space search (Srinivasan et al.) through {!Tss},
    maintained incrementally across insert/remove/expire: one hash group
    per distinct mask vector, with every rule's masks and values packed
    at insert into the same 63-bit int lanes as the header key
    ({!Header.lanes}).  A group probe is one [land] per lane and an
    int-keyed bucket lookup, and groups are probed in descending order of
    the best priority they hold, so a lookup stops once its winner
    outranks every remaining group.  On rule sets where nearly every
    entry has its own mask vector the index degenerates to one probe per
    entry, so the table falls back to a priority-ordered scan of the same
    packed lanes ({!index_degenerate}); semantics are identical either
    way (property-tested against {!create_linear}).  Eviction keeps an
    intrusive LRU list (O(1) per touch) and expiry a lazy min-heap on
    each entry's next deadline, so neither walks the bank.

    Time is a [float] of seconds supplied by the caller (the simulator's
    clock); the TCAM never reads a wall clock. *)

type t

type entry = {
  rule : Rule.t;
  installed_at : float;
  mutable last_hit : float;
  mutable packets : int;
  mutable bytes : int;
  idle_timeout : float option;  (** evict after this much hit silence *)
  hard_timeout : float option;  (** evict this long after install *)
}

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 0].  A capacity of [0] models a
    switch with no TCAM (everything misses). *)

val create_linear : capacity:int -> t
(** Like {!create} but with the tuple-space index disabled: every lookup
    tests each entry's predicate with {!Rule.matches} — the reference
    semantics, kept for benchmarking and differential testing; results
    are identical to an indexed table's on any operation sequence. *)

val capacity : t -> int
val occupancy : t -> int
val is_full : t -> bool
val entries : t -> entry list
(** In table (priority) order. *)

val fold : (entry -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** [fold f t init] is [f e1 (f e2 (... (f en init)))] over the entries
    in table order, so consing builds a table-ordered list; no
    intermediate list.  The table must not be modified during the fold. *)

val iter_with_pred : t -> Pred.t -> (entry -> unit) -> unit
val iter_buddies : t -> Pred.t -> (entry -> unit) -> unit

val iter_subsuming : ?min_priority:int -> t -> Pred.t -> (entry -> unit) -> unit
(** The entries whose predicate equals, is a buddy of ({!Pred.buddy_union})
    or subsumes (at priority [min_priority] or above) a given predicate,
    found through the tuple-space index without walking the table
    ({!Tss.iter_with_pred} and siblings).  Order is unspecified; the
    table must not be modified during a walk. *)

val find : t -> int -> entry option
(** Entry by rule id. *)

val mem : t -> int -> bool

val arrivals : t -> int
(** Entries that have entered the table since it was created (a
    same-id replacement counts as a departure and an arrival). *)

val departures : t -> int
(** Entries that have left the table since it was created, by any path
    (eviction, expiry, removal, replacement, {!clear}).  A change in this
    count is how a caller learns, in O(1), that some entry may be gone. *)

val track_departures : t -> unit
(** Start recording the rule id of every departure in a bounded ring of
    the most recent 256 (idempotent).  The ring is fed where
    {!departures} is counted, so it misses no removal path. *)

val departed_since : t -> int -> (int -> unit) -> bool
(** [departed_since t mark f], where [mark] is an earlier reading of
    {!departures}: call [f] on the id of every entry that left since
    then, oldest first, and return [true].  Returns [false] without
    calling [f] when the log cannot say — tracking is off or began after
    [mark], or more entries left than the ring holds — and the caller
    must fall back to looking at the whole table. *)

(** {1 Index introspection} *)

val index_groups : t -> int
(** Number of distinct mask vectors currently held — the tuple-space
    probe count upper bound. *)

val index_degenerate : t -> bool
(** True when lookups currently scan instead of probing groups (too
    many distinct mask vectors for tuple search to win — see
    {!Tss.degenerate} — or the index was disabled by {!create_linear}). *)

(** {1 Mutation} *)

val insert :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> now:float -> Rule.t ->
  [ `Ok | `Replaced of entry | `Full ]
(** Install a rule.  A rule with the same id replaces the old entry
    (OpenFlow flow-mod semantics); the displaced entry is returned with
    its final counters so the caller can emit a flow-removed
    notification instead of silently losing them.  [`Full] is returned,
    and nothing changes, when the table is at capacity. *)

type displaced = {
  evicted : entry list;  (** LRU victims, in eviction order *)
  replaced : entry option;  (** same-id entry displaced by the new rule *)
  bounced : bool;  (** capacity 0: the rule itself did not fit *)
}

val insert_or_evict :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> now:float -> Rule.t ->
  Rule.t list
(** Install, evicting least-recently-hit entries as needed to make room.
    Returns the evicted rules (empty when none; the incoming rule itself
    when it bounced off a zero-capacity table).  This is the reactive
    cache-install path of DIFANE ingress switches. *)

val insert_or_evict_entries :
  ?idle_timeout:float -> ?hard_timeout:float -> t -> now:float -> Rule.t ->
  displaced
(** Like {!insert_or_evict} but returning the full displaced entries —
    LRU victims and any same-id replaced entry — so callers can report
    final counters (flow-removed notifications). *)

val remove : t -> int -> bool
(** Remove by rule id; [false] if absent.  Not counted as an eviction. *)

val remove_where : t -> (Rule.t -> bool) -> int
(** Remove all entries whose rule satisfies the predicate; returns the
    number removed. *)

val clear : t -> unit

val expire : t -> now:float -> Rule.t list
(** Remove every entry whose idle or hard timeout has elapsed at [now];
    returns the removed rules.  Counted as {e expirations}, not
    evictions: timeout churn and capacity pressure are separate
    signals. *)

val expire_entries : t -> now:float -> entry list
(** Like {!expire} but returning the full expired entries. *)

(** {1 Lookup} *)

val lookup : t -> now:float -> ?bytes:int -> Header.t -> Rule.t option
(** Highest-priority matching entry; bumps its counters and [last_hit]
    and marks it most recently used.  [bytes] defaults to a 64-byte
    minimum-size packet.  On an indexed table (and without [~bytes]) it
    allocates nothing, hit or miss. *)

val peek : t -> Header.t -> Rule.t option
(** Like [lookup] but with no statistics side effects. *)

val touch : t -> now:float -> int -> bool
(** Refresh an entry's idle deadline and LRU position without counting a
    hit (packet/byte counters untouched).  Returns [false] if no live
    entry has that id.  The caching layer uses this to keep every member
    of a cover set warm while any one of them absorbs traffic — an unhit
    high-rank dependency must not idle out from under the group. *)

(** {1 Statistics} *)

type stats = {
  hits : int64;
  misses : int64;
  inserts : int64;
  evictions : int64;  (** LRU victims only — capacity pressure *)
  expirations : int64;  (** idle/hard timeouts — cache churn *)
}

val stats : t -> stats
val reset_stats : t -> unit

val hit_rate : t -> float
(** Hits over lookups since the last reset; [nan] before any lookup —
    renderers must map it to [null]/omission, never print it raw into
    JSON. *)

val pp : Format.formatter -> t -> unit
