type config = {
  enabled : bool;
  cover_limit : int option;
  merge_fragments : bool;
  merge_exact : bool;
  merge_covers : bool;
}

let default =
  {
    enabled = false;
    cover_limit = None;
    merge_fragments = true;
    merge_exact = true;
    merge_covers = true;
  }

let enabled_default = { default with enabled = true; cover_limit = Some 4 }

let cover_limit c = if c.enabled then c.cover_limit else None

type stats = {
  installs : int;
  merges : int;
  suppressed : int;
  cover_installs : int;
}

type t = {
  config : config;
  mutable n_installs : int;
  mutable n_merges : int;
  mutable n_suppressed : int;
  mutable n_cover_installs : int;
  m_merges : Telemetry.counter;
  m_suppressed : Telemetry.counter;
}

let create config =
  {
    config;
    n_installs = 0;
    n_merges = 0;
    n_suppressed = 0;
    n_cover_installs = 0;
    m_merges = Telemetry.counter "aggregate_merges";
    m_suppressed = Telemetry.counter "aggregate_suppressed";
  }

let stats t =
  {
    installs = t.n_installs;
    merges = t.n_merges;
    suppressed = t.n_suppressed;
    cover_installs = t.n_cover_installs;
  }

let config t = t.config

(* An incoming install is redundant when a live entry with the same
   action subsumes its predicate at priority >= its own: any header the
   new entry could win is already matched by the subsumer at no lower
   priority, so the TCAM's verdict is the same action either way.  (An
   entry that would beat the new rule also beats the subsumer; a
   priority tie breaks toward the older — lower — id, which suppression
   also preserves.)

   Cover-set members are exempt: a group is only sound while every
   member is physically resident (Switch.drop_cover_orphans), and two
   origins' cover sets routinely share dependencies — suppressing the
   shared member against the other group's live copy would leave this
   group permanently incomplete and scrubbed at the batch boundary,
   reinstall churn in place of caching.  The duplicate it installs
   instead is semantically inert: same predicate, same rank, same
   action, so whichever copy the TCAM picks the verdict is identical. *)
let subsumed_by_live sw (rule : Rule.t) =
  try
    Tcam.iter_subsuming ~min_priority:rule.Rule.priority (Switch.cache sw) rule.Rule.pred
      (fun (e : Tcam.entry) ->
        let r = e.Tcam.rule in
        if
          r.Rule.priority >= rule.Rule.priority
          && Action.equal r.Rule.action rule.Rule.action
          && Pred.subsumes r.Rule.pred rule.Rule.pred
        then raise_notrace Exit);
    false
  with Exit -> true

(* The index walks below offer candidates in no particular order; the
   answer is the first in table order, as a scan of the table would
   find it. *)
let offer best (r : Rule.t) x =
  match !best with
  | Some ((b : Rule.t), _) when Rule.compare_priority b r <= 0 -> ()
  | _ -> best := Some (r, x)

let kind_mergeable config (k : Switch.cache_kind) =
  match k with
  | Switch.Fragment -> config.merge_fragments
  | Switch.Exact -> config.merge_exact
  | Switch.Cover -> config.merge_covers

(* Merge legality for two entries of the same kind and partition,
   already known to carry the same action:

   - fragments merge at any rank pair; the union installs at the higher
     rank.  Fragments of different origins are disjoint and each
     excludes every rule beating its own origin, so raising one side to
     the other's (higher) rank can never steal a packet — nothing
     ranked above either origin overlaps either side — and per-part
     predicates keep hit attribution exact;
   - cover rules merge only at {e equal} rank: a cover entry reproduces
     one authority rule verbatim, and moving it in the priority order
     would invert a dependency the cover set exists to preserve;
   - exact entries all sit at priority 0 (microflows and degraded
     fallbacks), so equal-rank holds trivially. *)
let ranks_compatible (k : Switch.cache_kind) pa pb =
  match k with Switch.Fragment -> true | Switch.Cover | Switch.Exact -> pa = pb

let merge_parts a b =
  List.sort
    (fun (p : Switch.cache_part) (q : Switch.cache_part) ->
      compare q.Switch.part_rank p.Switch.part_rank)
    (a @ b)

(* One buddy-merge step: find a live entry adjacent to [pred] (equal on
   every field but one, buddies there — so the union is exact and covers
   no new header) that is legal to merge.  [Pred.buddy_union] only
   succeeds on disjoint operands, so merged parts partition the merged
   predicate exactly.  Cover-set members additionally require the same
   group: cross-group merging would entangle two atomically-evicted sets
   (and within one group ranks are distinct, so cover merges never fire
   in practice — the group machinery stays simple).  Only the entry's
   merge class — same partition, kind, group and action — is searched,
   and the first legal buddy in table order wins. *)
let find_merge sw ~pid ~kind ~group ~priority ~action pred =
  let best = ref None in
  Tcam.iter_buddies (Switch.cache sw) pred (fun (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      if Action.equal r.Rule.action action && ranks_compatible kind r.Rule.priority priority then
        match Switch.cache_meta_of_rule sw r.Rule.id with
        | Some m when m.Switch.pid = pid && m.Switch.kind = kind && m.Switch.group = group ->
            Option.iter (fun u -> offer best r (m, u)) (Pred.buddy_union pred r.Rule.pred)
        | Some _ | None -> ());
  !best

let install_one ?idle_timeout ?hard_timeout t sw ~now
    ((rule : Rule.t), (meta : Switch.cache_meta)) =
  if not t.config.enabled then begin
    t.n_installs <- t.n_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule (Some meta)
  end
  else if meta.Switch.group = None && subsumed_by_live sw rule then begin
    t.n_suppressed <- t.n_suppressed + 1;
    Telemetry.incr t.m_suppressed;
    []
  end
  else if not (kind_mergeable t.config meta.Switch.kind) then begin
    t.n_installs <- t.n_installs + 1;
    if meta.Switch.kind = Switch.Cover then
      t.n_cover_installs <- t.n_cover_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule (Some meta)
  end
  else begin
    (* widen to fixpoint: each absorbed neighbour may expose another
       buddy one bit further out, collapsing chains of adjacent entries
       into one maximally wide rule *)
    let pid = meta.Switch.pid and kind = meta.Switch.kind in
    let group = meta.Switch.group in
    let action = rule.Rule.action in
    let rec widen pred priority parts merged =
      match find_merge sw ~pid ~kind ~group ~priority ~action pred with
      | None -> (pred, priority, parts, merged)
      | Some (victim, (vmeta, union)) ->
          ignore (Switch.retire_cache_rule sw ~now Switch.Absorbed victim.Rule.id);
          t.n_merges <- t.n_merges + 1;
          Telemetry.incr t.m_merges;
          widen union
            (max priority victim.Rule.priority)
            (merge_parts parts vmeta.Switch.parts)
            true
    in
    let pred, priority, parts, merged =
      widen rule.Rule.pred rule.Rule.priority meta.Switch.parts false
    in
    let rule =
      if merged then
        Rule.make ~id:(Switch.fresh_cache_id sw) ~priority pred action
      else rule
    in
    t.n_installs <- t.n_installs + 1;
    if kind = Switch.Cover then t.n_cover_installs <- t.n_cover_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule
      (Some { meta with Switch.parts })
  end

(* An exactly-equivalent live cover entry: same predicate, rank, action
   and partition.  Reusing it (below) instead of installing a duplicate
   is what lets overlapping cover sets share their common dependencies —
   the compression the cover path is for. *)
let equivalent_live_cover sw (rule : Rule.t) (meta : Switch.cache_meta) =
  let best = ref None in
  Tcam.iter_with_pred (Switch.cache sw) rule.Rule.pred (fun (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      if
        r.Rule.priority = rule.Rule.priority
        && Action.equal r.Rule.action rule.Rule.action
        && Pred.equal r.Rule.pred rule.Rule.pred
      then
        match Switch.cache_meta_of_rule sw r.Rule.id with
        | Some m when m.Switch.kind = Switch.Cover && m.Switch.pid = meta.Switch.pid ->
            offer best r r.Rule.id
        | _ -> ());
  Option.map snd !best

(* Cover-set sharing: overlapping origins' cover sets carry the same
   high-rank dependencies.  A member with an exactly-equivalent live
   entry is not installed again — the existing entry's id is substituted
   into this group's member list, so completeness checks (Tcam
   membership) and warmth refresh (touch) flow through the shared entry.
   If the shared entry later goes, this group is incomplete and
   [drop_cover_orphans] scrubs it — atomicity holds across the
   sharing. *)
let share_covers t sw installs =
  let subst = ref [] in
  let installs =
    List.filter
      (fun ((rule : Rule.t), (meta : Switch.cache_meta)) ->
        meta.Switch.group = None
        ||
        match equivalent_live_cover sw rule meta with
        | Some id ->
            subst := (rule.Rule.id, id) :: !subst;
            t.n_suppressed <- t.n_suppressed + 1;
            Telemetry.incr t.m_suppressed;
            false
        | None -> true)
      installs
  in
  match !subst with
  | [] -> installs (* nothing shared: every member list stands *)
  | subst ->
      let remap id = Option.value ~default:id (List.assoc_opt id subst) in
      List.map
        (fun (rule, (meta : Switch.cache_meta)) ->
          match meta.Switch.group with
          | Some (gid, members) ->
              (rule, { meta with Switch.group = Some (gid, List.map remap members) })
          | None -> (rule, meta))
        installs

let install ?idle_timeout ?hard_timeout t sw ~now installs =
  let installs = if t.config.enabled then share_covers t sw installs else installs in
  let evicted =
    List.concat_map (install_one ?idle_timeout ?hard_timeout t sw ~now) installs
  in
  (* batch boundary: capacity evictions during the batch may have broken
     a resident cover group, and this batch's own group is incomplete if
     any member was suppressed or evicted mid-install — scrub survivors
     of any group that is not whole (no-op when no cover sets live) *)
  ignore (Switch.drop_cover_orphans sw ~now);
  evicted
