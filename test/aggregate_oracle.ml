(* The table-scanning cache aggregation, kept as the reference the
   indexed path ([Aggregate] over the TCAM's tuple-space index, and the
   departure-driven [Switch.drop_cover_orphans]) is differentially tested
   against.  Every question is answered by walking the whole cache in
   table order and reading each entry's recorded provenance: the first
   match is the answer.  Slow, and obviously right.

   Removals go through [Switch.retire_cache_rule], the switch's one
   removal funnel, so postcards, notifications and provenance clean-up
   are the production ones; only the choice of what to remove is
   re-derived here. *)

type t = {
  config : Aggregate.config;
  mutable installs : int;
  mutable merges : int;
  mutable suppressed : int;
  mutable cover_installs : int;
}

let create config = { config; installs = 0; merges = 0; suppressed = 0; cover_installs = 0 }

let stats t =
  {
    Aggregate.installs = t.installs;
    merges = t.merges;
    suppressed = t.suppressed;
    cover_installs = t.cover_installs;
  }

let entries sw = Tcam.entries (Switch.cache sw)

(* ---- the orphan scrub: every resident grouped entry, every time ---- *)

(* Resident entries whose cover group is missing a member, in table
   order. *)
let orphans sw =
  let cache = Switch.cache sw in
  List.filter
    (fun (e : Tcam.entry) ->
      match Switch.cache_meta_of_rule sw e.Tcam.rule.Rule.id with
      | Some { Switch.group = Some (_, members); _ } ->
          not (List.for_all (Tcam.mem cache) members)
      | _ -> false)
    (entries sw)

let drop_cover_orphans sw ~now =
  let doomed = orphans sw in
  List.iter
    (fun (e : Tcam.entry) ->
      ignore (Switch.retire_cache_rule sw ~now Switch.Orphaned e.Tcam.rule.Rule.id))
    doomed;
  List.length doomed

let absorb sw ~now cid =
  match List.find_opt (fun (e : Tcam.entry) -> e.Tcam.rule.Rule.id = cid) (entries sw) with
  | None -> false
  | Some _ -> Switch.retire_cache_rule sw ~now Switch.Absorbed cid

(* Origin invalidation: an entry goes if any origin it stands for is
   selected; its group's survivors follow. *)
let invalidate_origins sw ~now origins =
  let victims =
    List.filter
      (fun (e : Tcam.entry) ->
        List.exists origins (Switch.origins_of_cache_rule sw e.Tcam.rule.Rule.id))
      (entries sw)
  in
  List.iter
    (fun (e : Tcam.entry) ->
      ignore (Switch.retire_cache_rule sw ~now Switch.Invalidated e.Tcam.rule.Rule.id))
    victims;
  List.length victims + drop_cover_orphans sw ~now

(* ---- the install pipeline, each question a table-order scan ---- *)

let subsumed_by_live sw (rule : Rule.t) =
  List.exists
    (fun (e : Tcam.entry) ->
      e.Tcam.rule.Rule.priority >= rule.Rule.priority
      && Action.equal e.Tcam.rule.Rule.action rule.Rule.action
      && Pred.subsumes e.Tcam.rule.Rule.pred rule.Rule.pred)
    (entries sw)

let kind_mergeable (config : Aggregate.config) (k : Switch.cache_kind) =
  match k with
  | Switch.Fragment -> config.Aggregate.merge_fragments
  | Switch.Exact -> config.Aggregate.merge_exact
  | Switch.Cover -> config.Aggregate.merge_covers

let ranks_compatible (k : Switch.cache_kind) pa pb =
  match k with Switch.Fragment -> true | Switch.Cover | Switch.Exact -> pa = pb

let merge_parts a b =
  List.sort
    (fun (p : Switch.cache_part) (q : Switch.cache_part) ->
      compare q.Switch.part_rank p.Switch.part_rank)
    (a @ b)

let find_merge sw ~pid ~kind ~group ~priority ~action pred =
  List.find_map
    (fun (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      if not (Action.equal r.Rule.action action) then None
      else
        match Switch.cache_meta_of_rule sw r.Rule.id with
        | Some m
          when m.Switch.pid = pid && m.Switch.kind = kind && m.Switch.group = group
               && ranks_compatible kind r.Rule.priority priority -> (
            match Pred.buddy_union pred r.Rule.pred with Some u -> Some (r, m, u) | None -> None)
        | Some _ | None -> None)
    (entries sw)

let install_one ?idle_timeout ?hard_timeout t sw ~now ((rule : Rule.t), (meta : Switch.cache_meta)) =
  if not t.config.Aggregate.enabled then begin
    t.installs <- t.installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule (Some meta)
  end
  else if meta.Switch.group = None && subsumed_by_live sw rule then begin
    t.suppressed <- t.suppressed + 1;
    []
  end
  else if not (kind_mergeable t.config meta.Switch.kind) then begin
    t.installs <- t.installs + 1;
    if meta.Switch.kind = Switch.Cover then t.cover_installs <- t.cover_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule (Some meta)
  end
  else begin
    let pid = meta.Switch.pid and kind = meta.Switch.kind and group = meta.Switch.group in
    let action = rule.Rule.action in
    let rec widen pred priority parts merged =
      match find_merge sw ~pid ~kind ~group ~priority ~action pred with
      | None -> (pred, priority, parts, merged)
      | Some (victim, vmeta, union) ->
          ignore (absorb sw ~now victim.Rule.id);
          t.merges <- t.merges + 1;
          widen union (max priority victim.Rule.priority)
            (merge_parts parts vmeta.Switch.parts)
            true
    in
    let pred, priority, parts, merged =
      widen rule.Rule.pred rule.Rule.priority meta.Switch.parts false
    in
    let rule =
      if merged then Rule.make ~id:(Switch.fresh_cache_id sw) ~priority pred action else rule
    in
    t.installs <- t.installs + 1;
    if kind = Switch.Cover then t.cover_installs <- t.cover_installs + 1;
    Switch.install_cache_meta ?idle_timeout ?hard_timeout sw ~now rule
      (Some { meta with Switch.parts })
  end

let equivalent_live_cover sw (rule : Rule.t) (meta : Switch.cache_meta) =
  List.find_map
    (fun (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      if
        r.Rule.priority = rule.Rule.priority
        && Action.equal r.Rule.action rule.Rule.action
        && Pred.equal r.Rule.pred rule.Rule.pred
      then
        match Switch.cache_meta_of_rule sw r.Rule.id with
        | Some m when m.Switch.kind = Switch.Cover && m.Switch.pid = meta.Switch.pid ->
            Some r.Rule.id
        | _ -> None
      else None)
    (entries sw)

let share_covers t sw installs =
  let subst = Hashtbl.create 8 in
  let installs =
    List.filter
      (fun ((rule : Rule.t), (meta : Switch.cache_meta)) ->
        meta.Switch.group = None
        ||
        match equivalent_live_cover sw rule meta with
        | Some id ->
            Hashtbl.replace subst rule.Rule.id id;
            t.suppressed <- t.suppressed + 1;
            false
        | None -> true)
      installs
  in
  let remap id = Option.value ~default:id (Hashtbl.find_opt subst id) in
  List.map
    (fun (rule, (meta : Switch.cache_meta)) ->
      match meta.Switch.group with
      | Some (gid, members) ->
          (rule, { meta with Switch.group = Some (gid, List.map remap members) })
      | None -> (rule, meta))
    installs

let install ?idle_timeout ?hard_timeout t sw ~now installs =
  let installs = if t.config.Aggregate.enabled then share_covers t sw installs else installs in
  let evicted = List.concat_map (install_one ?idle_timeout ?hard_timeout t sw ~now) installs in
  ignore (drop_cover_orphans sw ~now);
  evicted
