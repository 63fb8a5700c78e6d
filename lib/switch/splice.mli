(** Cache-rule splicing: DIFANE's dependency-aware wildcard caching.

    Caching the rule a packet matched is unsafe when a higher-priority
    rule overlaps it — the cached copy would steal that rule's packets at
    the ingress switch.  DIFANE's answer is to cache not the rule but the
    {e independent piece} of the rule that the packet actually fell into:
    the rule's predicate clipped to the authority partition, minus every
    higher-priority overlapping predicate, restricted to the disjoint
    fragment containing the packet.  Pieces spliced this way never overlap
    each other (across rules {e and} across partitions), so the ingress
    cache bank needs no internal priorities and can never corrupt the
    policy — the correctness property the test suite checks exhaustively. *)

type piece = {
  origin : Rule.t;  (** the partition-table rule the packet matched *)
  pred : Pred.t;  (** the independent fragment containing the packet *)
}

(** {1 Compiled tables}

    A partition table compiled once, where it is installed, so a miss
    costs a tuple-space probe and a walk over the winner's own blockers
    instead of linear passes over the whole table.  The compiled form
    holds the table-order rule array, a rank per rule, and — computed on
    each origin's first serve, then kept — its blocker list (the earlier
    rules overlapping it) and its cover-set closure.  A table is
    compiled afresh on each install, so policy churn recompiles only the
    tables it replaces.  Not safe to share across domains: lazily filled
    entries are written on first use. *)

type t

val compile : Classifier.t -> t
(** Rule array, rank map and first-match index of a table; per-origin
    blocker lists and closures are filled in on first use. *)

val index : t -> Rule.t Tss.t
(** The table's tuple-space first-match index — also what the
    authority bank probes on the packet path. *)

(** {1 Serving a miss}

    Functions taking a rule require a rule {e of the compiled table}
    (matched by id); @raise Invalid_argument otherwise, except
    {!cache_priority}, which gives unknown origins the floor rank. *)

val for_header : t -> Header.t -> piece option
(** [for_header table h]: the independent piece of [table]'s winning rule
    that contains [h]; [None] when no rule matches.  The piece satisfies
    [Pred.matches piece.pred h] and overlaps no rule that beats
    [piece.origin]. *)

val cache_priority : t -> Rule.t -> int
(** The cache-bank priority for rules spliced or covered from [origin] in
    this partition table: the origin's rank counted from the table's
    bottom (last rule = 1, first = table length; 1 for a rule not in the
    table).  Explicit, dependency-aware priorities replace the old "all
    cache rules share priority 0" constant, whose hidden assumption —
    that cached rules never overlap — the cover-set and aggregation
    machinery breaks on purpose: ranks make any overlap between cached
    entries resolve exactly as the authority table would.  Exact-match
    fallback entries keep priority 0, below every rank. *)

val cache_rule : next_id:(unit -> int) -> t -> piece -> Rule.t
(** Materialise a piece as an installable cache rule carrying the origin's
    action at {!cache_priority} of its origin. *)

val direct_dependencies : t -> Rule.t -> Rule.t list
(** {!Classifier.direct_dependencies}, over the rule's cached blocker
    list instead of the whole table. *)

val cover_set : t -> Rule.t -> Rule.t list
(** [cover_set table r]: [r] plus the transitive closure of its direct
    dependencies ({!Classifier.direct_dependencies}), in table order
    (best first) — the Infinite-CacheFlow cover set.  Installing every
    member at its own {!cache_priority} caches [r]'s {e whole} predicate
    safely: each member's overlap structure is reproduced inside the
    cache, so the highest-priority cached member matching a header is the
    rule the authority table would pick.  Worth installing when
    {!dependent_set_cost} is small. *)

val pieces_of_rule : t -> Rule.t -> Pred.t list
(** All independent pieces of one rule (its effective region as disjoint
    predicates) — used by the ablation bench to count worst-case cache
    cost per rule. *)

val dependent_set_cost : t -> Rule.t -> int
(** Size of the naive alternative: cache the rule plus every rule in its
    transitive direct-dependency closure (the CacheFlow "dependent set")
    — the length of {!cover_set}.  The A-SPLICE ablation compares this
    against splicing. *)
