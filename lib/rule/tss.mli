(** Tuple-space search over packed header lanes.

    One index for every rule bank on the per-packet path: the ingress
    cache TCAM ({!Tcam}), the partition bank and the authority tables.
    Tuple space search (Srinivasan et al.) groups rules by their
    {e mask vector} — which bits of which fields they specify — so that
    within a group a lookup is one hash probe on the masked header.

    Masks and values are packed once, at {!add}, into the same 63-bit
    int lanes as {!Header.lanes} (two lanes for the ACL 5-tuple, three
    for [openflow_basic]).  A group probe is then one [land] per lane
    and an int-keyed bucket lookup.  Groups are kept ordered by the best
    priority they hold, so a lookup stops as soon as its current winner
    outranks every remaining group.

    Tuple search only pays off when rules {e share} mask vectors
    (prefix tables, microflow caches).  When nearly every rule has its
    own mask vector it degenerates to one probe per rule, so {!find}
    falls back to a priority-ordered scan of the same packed
    (mask, value) lanes, stopping at the first match ({!degenerate}).

    Both paths allocate nothing: every entry carries its payload
    pre-wrapped in [Some], and {!find} returns that value.

    The index is maintained incrementally across {!add}/{!remove}.  The
    winner is the highest-priority matching rule, ties broken by lower
    rule id and then by insertion order — {!Rule.compare_priority}'s
    table order, and {!Classifier.first_match}'s answer on a classifier
    (property-tested against [Pred.matches]). *)

type 'a t

val create : unit -> 'a t

val of_classifier : Classifier.t -> Rule.t t
(** Every rule of the table, each its own payload. *)

val add : 'a t -> Rule.t -> 'a -> unit
(** Index a rule with its payload.  Duplicate rules are allowed; each
    [add] is a separate entry.
    @raise Invalid_argument if the rule's schema packs into a different
    number of lanes than the rules already held. *)

val remove : 'a t -> Rule.t -> 'a -> bool
(** Drop the entry holding this rule (same predicate, priority and id)
    and {e physically} this payload; [false] if there is none. *)

val clear : 'a t -> unit

val find : 'a t -> Header.t -> 'a option
(** The payload of the winning entry, or [None].  Allocation-free. *)

val length : 'a t -> int

val groups : 'a t -> int
(** Number of distinct mask vectors — the probe count upper bound. *)

val degenerate : 'a t -> bool
(** True when {!find} takes the linear scan: more than 8 groups, and
    more than one group per 32 entries. *)

val to_list : 'a t -> 'a list
(** Payloads in table order (the order {!find} prefers them). *)

(** {1 Single-predicate tests} *)

type pattern
(** One predicate's packed (mask, value) lanes. *)

val pattern : Pred.t -> pattern

val covers : pattern -> Header.t -> bool
(** [covers (pattern p) h = Pred.matches p h], allocation-free. *)
