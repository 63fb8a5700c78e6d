(* The indexed cache aggregation against the table-scanning reference
   ([Aggregate_oracle]): the same random interleaving of installs, cache
   churn and behind-the-back table edits, run once through [Aggregate]
   and the switch's departure-driven orphan scrub and once through the
   oracle, must produce the same returns, notifications, postcards,
   counters and final table.  Plus the provenance regression for origin
   invalidation and the TCAM primitives the index stands on. *)

open Test_util

let s2 = Schema.tiny2
let p = Pred.of_strings s2

(* Overlapping rules whose cover sets share their high-rank
   dependencies, so cover sharing, shared-member cascades and fragment
   splices all occur. *)
let policy =
  Classifier.of_specs s2
    [
      (50, [ ("f1", "0000000x") ], Action.Drop);
      (40, [ ("f1", "000000xx"); ("f2", "1xxxxxxx") ], Action.Forward 2);
      (30, [ ("f1", "00000xxx") ], Action.Forward 1);
      (25, [ ("f1", "0000x1xx"); ("f2", "xxxxxx0x") ], Action.Forward 2);
      (20, [ ("f2", "11xxxxxx") ], Action.Forward 3);
      (10, [ ("f1", "0000xxxx") ], Action.Forward 1);
      (0, [], Action.Drop);
    ]

let origins = Array.of_list (List.map (fun (r : Rule.t) -> r.Rule.id) (Classifier.rules policy))

(* Crafted predicates: narrow enough to be buddies of each other and of
   the splices, wide enough for some to subsume others. *)
let pool =
  [|
    p [ ("f1", "00000100") ]; p [ ("f1", "00000101") ]; p [ ("f1", "0000010x") ];
    p [ ("f1", "00000110") ]; p [ ("f1", "0000011x") ]; p [ ("f1", "000001xx") ];
    p [ ("f1", "00000100"); ("f2", "00000000") ]; p [ ("f1", "00000100"); ("f2", "00000001") ];
    p [ ("f1", "00001100") ]; p [ ("f1", "00001101") ]; p [ ("f1", "00000000") ];
    p [ ("f1", "00000111") ]; p [ ("f1", "00001110") ];
  |]

type side = {
  install : Switch.t -> now:float -> (Rule.t * Switch.cache_meta) list -> Rule.t list;
  absorb : Switch.t -> now:float -> int -> bool;
  invalidate_origins : Switch.t -> now:float -> (int -> bool) -> int;
  scrub : Switch.t -> now:float -> int;
  stats : unit -> Aggregate.stats;
}

let indexed config =
  let a = Aggregate.create config in
  {
    install = (fun sw ~now l -> Aggregate.install ~idle_timeout:2.0 a sw ~now l);
    absorb = (fun sw ~now id -> Switch.retire_cache_rule sw ~now Switch.Absorbed id);
    invalidate_origins = Switch.invalidate_origins;
    scrub = Switch.drop_cover_orphans;
    stats = (fun () -> Aggregate.stats a);
  }

let oracle config =
  let o = Aggregate_oracle.create config in
  {
    install = (fun sw ~now l -> Aggregate_oracle.install ~idle_timeout:2.0 o sw ~now l);
    absorb = Aggregate_oracle.absorb;
    invalidate_origins = Aggregate_oracle.invalidate_origins;
    scrub = Aggregate_oracle.drop_cover_orphans;
    stats = (fun () -> Aggregate_oracle.stats o);
  }

(* What one step showed: its return, the notifications it queued and
   the table it left, in table order. *)
type seen = { ret : int list; notes : Message.t list; table : (int * int * string) list }

let table sw =
  List.map
    (fun (e : Tcam.entry) ->
      let r = e.Tcam.rule in
      (r.Rule.id, r.Rule.priority, Pred.to_string r.Rule.pred ^ Action.to_string r.Rule.action))
    (Tcam.entries (Switch.cache sw))

let ids rules = List.map (fun (r : Rule.t) -> r.Rule.id) rules
let of_bool b = [ (if b then 1 else 0) ]

let run make ~seed ~capacity ~config ops =
  Ptrace.enable ~capacity:65536 ();
  Ptrace.bind ~shard:0;
  let side = make config in
  let rng = Prng.create seed in
  let sw = Switch.create ~id:0 ~cache_capacity:capacity in
  Switch.install_authority sw { Partitioner.pid = 0; region = Pred.any s2; table = policy };
  let now = ref 0. and removed_behind = ref [] in
  let header () =
    let f2 = if Prng.bool rng then Prng.int rng 8 else Prng.int rng 256 in
    Header.make s2 [| Int64.of_int (Prng.int rng 20); Int64.of_int f2 |]
  in
  let pick () =
    match table sw with
    | [] -> None
    | l ->
        let id, _, _ = Prng.choose rng (Array.of_list l) in
        Some id
  in
  let part origin rank pred = { Switch.part_origin = origin; part_rank = rank; part_pred = pred } in
  (* Expiry, pid invalidation and Delete are the switch's own paths on
     both sides, so their built-in scrub is the indexed one there too.
     Half the time the side's scrub follows at once: the oracle's full
     scan then finds exactly what the indexed scrub finds (the orphans
     its own removals left) only if that built-in scrub missed nothing. *)
  let then_scrub now ret = if Prng.bool rng then ret @ [ side.scrub sw ~now ] else ret in
  let step op =
    now := !now +. (Prng.float rng *. 0.8);
    let now = !now in
    match op with
    | 0 | 1 | 2 -> (
        let mode = if Prng.int rng 5 = 0 then `Microflow else `Spliced in
        let cover_limit = if Prng.int rng 4 = 0 then None else Some (1 + Prng.int rng 4) in
        match Switch.serve_miss ~mode ?cover_limit sw ~now (header ()) with
        | Some r -> ids (side.install sw ~now r.Switch.installs)
        | None -> [])
    | 3 ->
        (* an ungrouped fragment: buddy merges and suppression *)
        let pred = Prng.choose rng pool in
        let rank = 1 + Prng.int rng 3 in
        let r =
          Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:rank pred
            (if Prng.int rng 4 = 0 then Action.Forward 2 else Action.Forward 1)
        in
        let meta =
          { Switch.pid = (if Prng.int rng 4 = 0 then 1 else 0); kind = Switch.Fragment;
            group = None; parts = [ part (Prng.int rng 60) rank pred ] }
        in
        ids (side.install sw ~now [ (r, meta) ])
    | 4 ->
        (* a crafted cover batch: duplicate and buddy members at shared
           ranks, sometimes born without one of its members *)
        let k = 1 + Prng.int rng 3 in
        let members =
          List.init k (fun _ ->
              let rank = 5 + Prng.int rng 2 in
              ( Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:rank (Prng.choose rng pool)
                  (if Prng.bool rng then Action.Drop else Action.Forward 1),
                rank ))
        in
        let group = Some (Switch.fresh_cache_id sw, List.map (fun ((r : Rule.t), _) -> r.Rule.id) members) in
        let batch =
          List.map
            (fun ((r : Rule.t), rank) ->
              (r, { Switch.pid = 0; kind = Switch.Cover; group; parts = [ part 70 rank r.Rule.pred ] }))
            members
        in
        let batch = if k > 1 && Prng.int rng 4 = 0 then List.tl batch else batch in
        ids (side.install sw ~now batch)
    | 5 -> then_scrub now (ids (Switch.expire_cache sw ~now))
    | 6 -> then_scrub now [ Switch.invalidate_cache_pids sw ~now [ Prng.int rng 2 ] ]
    | 7 -> (
        match pick () with
        | Some id ->
            let rule = Rule.make ~id ~priority:0 (Pred.any s2) Action.Drop in
            Switch.apply_flow_mod sw ~now
              { Message.command = Message.Delete; bank = Message.Cache; rule;
                idle_timeout = None; hard_timeout = None };
            then_scrub now [ id ]
        | None -> [])
    | 8 -> ( match pick () with Some id -> of_bool (side.absorb sw ~now id) | None -> [])
    | 9 -> (
        (* behind the switch's back: the provenance stays recorded *)
        match pick () with
        | Some id ->
            Option.iter
              (fun (e : Tcam.entry) -> removed_behind := e.Tcam.rule :: !removed_behind)
              (Tcam.find (Switch.cache sw) id);
            of_bool (Tcam.remove (Switch.cache sw) id)
        | None -> [])
    | 10 ->
        if Prng.int rng 4 = 0 then begin
          Tcam.clear (Switch.cache sw);
          [ -1 ]
        end
        else [ side.scrub sw ~now ]
    | 11 ->
        let o = if Prng.bool rng then Prng.choose rng origins else Prng.int rng 71 in
        [ side.invalidate_origins sw ~now (fun x -> x = o) ]
    | 12 -> [ side.scrub sw ~now ]
    | 13 ->
        let r =
          Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:(Prng.int rng 3) (Prng.choose rng pool)
            Action.Drop
        in
        ids (Switch.install_cache_rule ~idle_timeout:2.0 ~origin_id:(Prng.int rng 60) ~pid:0 sw ~now r)
    | 14 -> (
        match Switch.process sw ~now (header ()) with
        | Switch.Local (_, Switch.Cache_bank) -> [ 1 ]
        | _ -> [ 0 ])
    | _ when !removed_behind <> [] && Prng.bool rng ->
        (* an entry removed behind the switch's back comes back the same
           way, under its old (possibly grouped) provenance *)
        let r = Prng.choose rng (Array.of_list !removed_behind) in
        ids (Tcam.insert_or_evict (Switch.cache sw) ~now r)
    | _ ->
        (* installs behind the switch's back, sometimes enough evictions
           to overflow the departure log *)
        let n = if Prng.int rng 3 = 0 then 300 else 1 + Prng.int rng 5 in
        for _ = 1 to n do
          let r =
            Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:(Prng.int rng 7)
              (Prng.choose rng pool) Action.Drop
          in
          ignore (Tcam.insert_or_evict (Switch.cache sw) ~now r)
        done;
        [ n ]
  in
  let seen =
    List.map
      (fun op ->
        let ret = step op in
        let notes = Switch.drain_notifications sw in
        { ret; notes; table = table sw })
      ops
  in
  let cards = Array.to_list (Ptrace.postcards ()) in
  Ptrace.disable ();
  Ptrace.clear ();
  (seen, cards, side.stats ())

let prop_index_is_scan =
  qt ~count:300 "indexed aggregation = table-scanning oracle over random churn"
    QCheck2.Gen.(
      triple (int_bound 1_000_000) (int_range 3 10) (list_size (int_range 5 80) (int_bound 15)))
    (fun (seed, capacity, ops) ->
      let config =
        { Aggregate.enabled_default with merge_covers = seed mod 5 <> 0;
          merge_fragments = seed mod 7 <> 0 }
      in
      let a = run indexed ~seed ~capacity ~config ops in
      let b = run oracle ~seed ~capacity ~config ops in
      a = b)

(* Several live candidates: a buddy on every bit of the new rule's
   field, at distinct ranks, and a cover duplicated within one batch.
   The index walks them in hash order; the answer must still be the
   first in table order, as the scan finds it. *)
let test_first_in_table_order () =
  let scenario make =
    let side = make Aggregate.enabled_default in
    let sw = Switch.create ~id:0 ~cache_capacity:32 in
    let frag id rank f1 =
      let pred = p [ ("f1", f1) ] in
      ( Rule.make ~id ~priority:rank pred (Action.Forward 1),
        { Switch.pid = 0; kind = Switch.Fragment; group = None;
          parts = [ { Switch.part_origin = id; part_rank = rank; part_pred = pred } ] } )
    in
    let buddies = [ "00000101"; "00000110"; "00000000"; "00001100"; "00010100"; "00100100"; "01000100"; "10000100" ] in
    List.iteri
      (fun i f1 -> ignore (side.install sw ~now:0. [ frag (100 + i) (1 + ((i * 5) mod 8)) f1 ]))
      buddies;
    ignore (side.install sw ~now:0. [ frag 200 1 "00000100" ]);
    let cover id gid members f1 =
      let pred = p [ ("f1", f1); ("f2", "1xxxxxxx") ] in
      ( Rule.make ~id ~priority:9 pred Action.Drop,
        { Switch.pid = 0; kind = Switch.Cover; group = Some (gid, members);
          parts = [ { Switch.part_origin = 7; part_rank = 9; part_pred = pred } ] } )
    in
    ignore (side.install sw ~now:0. [ cover 300 302 [ 300; 301 ] "1111xxxx"; cover 301 302 [ 300; 301 ] "1111xxxx" ]);
    ignore (side.install sw ~now:0. [ cover 310 312 [ 310; 311 ] "1111xxxx"; cover 311 312 [ 310; 311 ] "0111xxxx" ]);
    (table sw, List.map (fun (e : Tcam.entry) -> Switch.cache_meta_of_rule sw e.Tcam.rule.Rule.id)
                 (Tcam.entries (Switch.cache sw)), side.stats ())
  in
  let a = scenario indexed and b = scenario oracle in
  check Alcotest.bool "the same merges, shares and provenance as the scan" true (a = b);
  let _, _, st = a in
  check Alcotest.bool "a merge and a share happened" true
    (st.Aggregate.merges > 0 && st.Aggregate.suppressed > 0)

(* ---- origin invalidation drops provenance with the entries ---- *)

let test_invalidate_drops_provenance () =
  let config =
    { Deployment.default_config with k = 4; cache_capacity = 6;
      aggregation = Aggregate.enabled_default }
  in
  let d =
    Deployment.build ~config ~policy ~topology:(Topology.line 4 ()) ~authority_ids:[ 1 ] ()
  in
  let rng = Prng.create 7 in
  let resident () =
    List.concat_map
      (fun sw -> List.map (fun (e : Tcam.entry) -> (sw, e.Tcam.rule.Rule.id)) (Tcam.entries (Switch.cache sw)))
      (Array.to_list (Deployment.switches d))
  in
  let removed = ref 0 in
  for i = 1 to 100 do
    let now = float_of_int i *. 1e-3 in
    for _ = 1 to 3 do
      let h = Header.make s2 [| Int64.of_int (Prng.int rng 20); Int64.of_int (Prng.int rng 256) |] in
      ignore (Deployment.inject d ~now ~ingress:0 h)
    done;
    let before = resident () in
    let o = Prng.choose rng origins in
    ignore (Deployment.invalidate_origins ~now d ~origins:(fun x -> x = o));
    List.iter
      (fun (sw, id) ->
        if not (Tcam.mem (Switch.cache sw) id) then begin
          incr removed;
          if Switch.cache_meta_of_rule sw id <> None then
            Alcotest.failf "invalidation %d left the provenance of removed entry %d" i id
        end)
      before
  done;
  check Alcotest.bool "invalidations removed entries" true (!removed > 0)

(* ---- each removal path scrubs its orphans at once ---- *)

(* A two-member cover group beside an ungrouped entry; one member leaves
   through each of the switch's own removal paths, and its partner must
   leave in the same call: a full scan finds no orphan afterwards, and
   neither member keeps its provenance. *)
let test_removal_paths_scrub () =
  let member id pid origin =
    let pred = p [ ("f1", Printf.sprintf "0000010%d" (id mod 2)) ] in
    ( Rule.make ~id ~priority:5 pred Action.Drop,
      Some { Switch.pid; kind = Switch.Cover; group = Some (3, [ 1; 2 ]);
             parts = [ { Switch.part_origin = origin; part_rank = 5; part_pred = pred } ] } )
  in
  let case name remove =
    let sw = Switch.create ~id:0 ~cache_capacity:8 in
    let a, ma = member 1 1 5 and b, mb = member 2 0 6 in
    ignore (Switch.install_cache_meta ~idle_timeout:1. sw ~now:0. a ma);
    ignore (Switch.install_cache_meta sw ~now:0. b mb);
    ignore (Switch.install_cache_rule ~origin_id:7 sw ~now:0.
              (Rule.make ~id:10 ~priority:1 (p [ ("f1", "00001100") ]) Action.Drop));
    check Alcotest.int (name ^ ": a complete group survives a scrub") 0
      (Switch.drop_cover_orphans sw ~now:0.);
    remove sw;
    check Alcotest.(list int) (name ^ ": only the ungrouped entry stays") [ 10 ]
      (List.map (fun (e : Tcam.entry) -> e.Tcam.rule.Rule.id) (Tcam.entries (Switch.cache sw)));
    check Alcotest.int (name ^ ": a full scan finds no orphan") 0
      (List.length (Aggregate_oracle.orphans sw));
    check Alcotest.bool (name ^ ": provenance left with the members") true
      (Switch.cache_meta_of_rule sw 1 = None && Switch.cache_meta_of_rule sw 2 = None)
  in
  case "expiry" (fun sw -> ignore (Switch.expire_cache sw ~now:2.));
  case "pid invalidation" (fun sw -> ignore (Switch.invalidate_cache_pids sw ~now:2. [ 1 ]));
  case "controller delete" (fun sw ->
      Switch.apply_flow_mod sw ~now:2.
        { Message.command = Message.Delete; bank = Message.Cache;
          rule = Rule.make ~id:1 ~priority:0 (Pred.any s2) Action.Drop;
          idle_timeout = None; hard_timeout = None });
  case "origin invalidation" (fun sw -> ignore (Switch.invalidate_origins sw ~now:2. (fun o -> o = 5)))

(* ---- the TCAM primitives under the index ---- *)

(* Tss's predicate-shaped walks = filtering every entry. *)
let prop_tss_queries =
  qt ~count:200 "Tss predicate walks = filtering the whole index"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let tern () =
        let v = Int64.of_int (Prng.int rng 16) in
        match Prng.int rng 3 with
        | 0 -> Ternary.exact ~width:8 v
        | 1 -> Ternary.prefix ~width:8 (Int64.shift_left v 4) (Prng.int rng 9)
        | _ -> Ternary.make ~width:8 ~value:v ~mask:(Int64.of_int (Prng.int rng 16))
      in
      let pred () = Pred.make s2 [ tern (); tern () ] in
      let rules = List.init n (fun i -> Rule.make ~id:i ~priority:(Prng.int rng 4) (pred ()) Action.Drop) in
      let t = Tss.create () in
      List.iter (fun r -> Tss.add t r r) rules;
      let walk f q = List.sort compare (ids (let acc = ref [] in f t q (fun r -> acc := r :: !acc); !acc)) in
      let scan keep = List.sort compare (ids (List.filter keep rules)) in
      List.for_all
        (fun _ ->
          let q = if Prng.bool rng then (Prng.choose rng (Array.of_list rules)).Rule.pred else pred () in
          let min_priority = Prng.int rng 4 in
          walk Tss.iter_with_pred q = scan (fun r -> Pred.equal r.Rule.pred q)
          && walk Tss.iter_buddies q = scan (fun r -> Pred.buddy_union q r.Rule.pred <> None)
          && walk (Tss.iter_subsuming ~min_priority) q
             = scan (fun r -> r.Rule.priority >= min_priority && Pred.subsumes r.Rule.pred q))
        (List.init 20 Fun.id))

(* The departure log reports every removal path, and says when it
   cannot. *)
let test_departure_log () =
  let t = Tcam.create ~capacity:4 in
  let r i = Rule.make ~id:i ~priority:i (p [ ("f1", Printf.sprintf "0000%04d" (i mod 2)) ]) Action.Drop in
  let seen mark =
    let acc = ref [] in
    if Tcam.departed_since t mark (fun id -> acc := id :: !acc) then Some (List.rev !acc) else None
  in
  ignore (Tcam.insert t ~now:0. (r 1));
  check Alcotest.(option (list int)) "untracked" None (seen 0);
  Tcam.track_departures t;
  let mark = Tcam.departures t in
  ignore (Tcam.insert ~idle_timeout:1. t ~now:0. (r 2));
  ignore (Tcam.insert t ~now:0. (r 3));
  ignore (Tcam.remove t 1);
  ignore (Tcam.expire t ~now:5.);
  ignore (Tcam.insert t ~now:5. (r 3));
  Tcam.clear t;
  check Alcotest.(option (list int)) "remove, expire, replace, clear" (Some [ 1; 2; 3; 3 ]) (seen mark);
  for i = 10 to 400 do
    ignore (Tcam.insert_or_evict t ~now:6. (r i))
  done;
  check Alcotest.(option (list int)) "overflowed" None (seen mark)

let suite =
  [
    ( "cache-index",
      [
        prop_index_is_scan;
        tc "first candidate in table order wins" test_first_in_table_order;
        tc "invalidate_origins drops provenance" test_invalidate_drops_provenance;
        tc "every removal path scrubs its orphans at once" test_removal_paths_scrub;
        prop_tss_queries;
        tc "departure log" test_departure_log;
      ] );
  ]
