(* Differential tests for the compiled miss path and the precomputed
   topology: each fast structure against the straightforward code it
   replaced — the list-walking splicer ([Splice_oracle]), subtraction
   followed by a search, an unconditional orphan scan, a fresh Dijkstra
   per query and a hop loop over a path list. *)

open Test_util

(* ---- random policies over every stock schema ---- *)

let schemas =
  [ ("tiny2", Schema.tiny2); ("ip_pair", Schema.ip_pair);
    ("acl_5tuple", Schema.acl_5tuple); ("openflow_basic", Schema.openflow_basic) ]

let mask_of width = Int64.pred (Int64.shift_left 1L width)

(* Field values are drawn around a few per-field bases, so prefixes nest
   and rules overlap as often as in real ACLs, on wide fields too. *)
let rand_ternary rng ~bases width =
  let base = Prng.choose rng bases in
  match Prng.int rng 5 with
  | 0 | 1 -> Ternary.any width
  | 2 | 3 ->
      (* prefixes up to /8: long enough to nest, short enough that the
         oracle's subtraction search (pieces per field = prefix length)
         stays small on 32- and 48-bit fields *)
      Ternary.prefix ~width base (Prng.int rng (min width 8 + 1))
  | _ ->
      (* one or two scattered specified bits: non-prefix masks, kept
         sparse so the oracle's closure search stays small *)
      let bit () = Int64.shift_left 1L (Prng.int rng width) in
      Ternary.make ~width ~value:(Prng.int64 rng) ~mask:(Int64.logor (bit ()) (bit ()))

let random_policy rng schema =
  let arity = Schema.arity schema in
  let bases =
    Array.init arity (fun i ->
        let w = Schema.field_bits schema i in
        Array.init 3 (fun _ -> Int64.logand (Prng.int64 rng) (mask_of w)))
  in
  let n = 2 + Prng.int rng 22 in
  let rules =
    List.init n (fun id ->
        let fields =
          List.init arity (fun i -> rand_ternary rng ~bases:bases.(i) (Schema.field_bits schema i))
        in
        let action = if Prng.int rng 3 = 0 then Action.Drop else Action.Forward (Prng.int rng 4) in
        Rule.make ~id ~priority:(Prng.int rng 10) (Pred.make schema fields) action)
  in
  (* usually total; sometimes not, so "no match" is exercised *)
  let rules =
    if Prng.int rng 4 = 0 then rules
    else Rule.make ~id:n ~priority:(-1) (Pred.any schema) (Action.Forward 0) :: rules
  in
  Classifier.create schema rules

let random_header rng schema policy =
  let rules = Array.of_list (Classifier.rules policy) in
  if Prng.bool rng then Pred.random_point (Prng.bits rng) (Prng.choose rng rules).Rule.pred
  else
    Header.make schema
      (Array.init (Schema.arity schema) (fun i ->
           Int64.logand (Prng.int64 rng) (mask_of (Schema.field_bits schema i))))

let ids rules = List.map (fun (r : Rule.t) -> r.Rule.id) rules

(* Rank, dependencies, closure size and cover set of one rule, compiled
   vs oracle.  Deciding a dependency is a subtraction search that can
   grow exponentially with the blockers in the way (for both sides), so
   the graph is compared only below a blocker bound, as the A-SPLICE
   ablation bounds its fragmentation statistic. *)
let rule_agrees table compiled (r : Rule.t) =
  Splice.cache_priority compiled r = Splice_oracle.cache_priority table r
  && (List.length (List.filter (fun b -> Rule.beats b r && Rule.overlaps b r) (Classifier.rules table))
      > 10
     || ids (Splice.direct_dependencies compiled r) = ids (Classifier.direct_dependencies table r)
        && Splice.dependent_set_cost compiled r = Splice_oracle.dependent_set_cost table r
        && ids (Splice.cover_set compiled r) = ids (Splice_oracle.cover_set table r))

(* Every query the serve path answers, compiled vs oracle.  The oracle
   recomputes a closure anew on each call, so [checked] keeps it
   to once per origin. *)
let agrees table compiled checked h =
  let fast = Splice.for_header compiled h and slow = Splice_oracle.for_header table h in
  let rule_queries (r : Rule.t) =
    Hashtbl.mem checked r.id
    || begin
         Hashtbl.add checked r.id ();
         rule_agrees table compiled r
       end
  in
  match (fast, slow) with
  | None, None -> true
  | Some p, Some q ->
      p.Splice.origin.Rule.id = q.Splice_oracle.origin.Rule.id
      && Pred.equal p.Splice.pred q.Splice_oracle.pred
      && rule_queries p.Splice.origin
  | _ -> false

(* Headers first (the serve path fills per-origin entries lazily, in
   whatever order misses arrive), then the closures of [closures] more
   rules from the bottom of the table (the deepest ones) and the first
   few rules' pieces.  The oracle recomputes every closure anew,
   which on wide random tables is what bounds the sample. *)
let compiled_agrees ?(closures = 2) rng table =
  let schema = Classifier.schema table in
  let compiled = Splice.compile table in
  (* a second pass re-reads every lazily compiled entry *)
  let headers = List.init 12 (fun _ -> random_header rng schema table) in
  let n = Classifier.length table in
  let checked = Hashtbl.create 16 in
  List.for_all (agrees table compiled checked) (headers @ headers)
  && List.for_all
       (fun (r : Rule.t) -> Hashtbl.mem checked r.id || rule_agrees table compiled r)
       (List.filteri (fun i _ -> i >= n - closures) (Classifier.rules table))
  && List.for_all
       (fun (r : Rule.t) ->
         List.equal Pred.equal (Splice.pieces_of_rule compiled r)
           (Splice_oracle.pieces_of_rule table r))
       (List.filteri (fun i _ -> i < 4) (Classifier.rules table))

let prop_compiled_serve (name, schema) =
  qt ~count:100 ("compiled serve = list-walking oracle on " ^ name)
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      compiled_agrees rng (random_policy rng schema))

(* Generated ACLs: long dependency chains, where a blocker is often
   covered by the rules between it and its dependent. *)
let prop_compiled_serve_acl =
  qt ~count:40 "compiled serve = list-walking oracle on generated ACLs"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      compiled_agrees ~closures:max_int rng
        (Policy_gen.acl (Prng.split rng)
           { Policy_gen.default_acl with rules = 20 + Prng.int rng 30; chains = 4; chain_depth = 6 }))

let test_unknown_rule () =
  let table = random_policy (Prng.create 7) Schema.tiny2 in
  let compiled = Splice.compile table in
  let stranger = Rule.make ~id:999 ~priority:5 (Pred.any Schema.tiny2) Action.Drop in
  check Alcotest.int "floor rank" 1 (Splice.cache_priority compiled stranger);
  match Splice.cover_set compiled stranger with
  | _ -> Alcotest.fail "cover_set accepted a rule outside the table"
  | exception Invalid_argument _ -> ()

(* ---- the algebra the splice walk stands on ---- *)

let prop_overlaps_is_inter =
  qt ~count:500 "Pred.overlaps = Option.is_some (Pred.inter)"
    QCheck2.Gen.(pair gen_pred_tiny2 gen_pred_tiny2)
    (fun (a, b) ->
      Pred.overlaps a b = Option.is_some (Pred.inter a b)
      && Ternary.overlaps (Pred.field a 0) (Pred.field b 0)
         = Option.is_some (Ternary.inter (Pred.field a 0) (Pred.field b 0)))

let prop_clip_is_subtract_search =
  qt ~count:500 "clip_to_holder = the piece of subtract holding the header"
    QCheck2.Gen.(triple gen_pred_tiny2 gen_pred_tiny2 (int_bound 1_000_000))
    (fun (a, b, seed) ->
      let h = Pred.random_point (Prng.bits (Prng.create seed)) a in
      QCheck2.assume (not (Pred.matches b h));
      Pred.equal (Pred.clip_to_holder a h b) (Splice_oracle.clip_to_holder a h b))

let prop_clip_wide_fields =
  qt ~count:300 "clip_to_holder = subtract search on wide schemas"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      List.for_all
        (fun (_, schema) ->
          let table = random_policy rng schema in
          let rules = Array.of_list (Classifier.rules table) in
          let a = (Prng.choose rng rules).Rule.pred and b = (Prng.choose rng rules).Rule.pred in
          let h = Pred.random_point (Prng.bits rng) a in
          Pred.matches b h
          || Pred.equal (Pred.clip_to_holder a h b) (Splice_oracle.clip_to_holder a h b))
        schemas)

let test_clip_preconditions () =
  let a = Pred.of_strings Schema.tiny2 [ ("f1", "0000xxxx") ] in
  let b = Pred.of_strings Schema.tiny2 [ ("f1", "00000xxx") ] in
  let inside = Header.make Schema.tiny2 [| 1L; 0L |] in
  let outside = Header.make Schema.tiny2 [| 255L; 0L |] in
  List.iter
    (fun (what, h) ->
      match Pred.clip_to_holder a h b with
      | _ -> Alcotest.failf "accepted a header %s" what
      | exception Invalid_argument _ -> ())
    [ ("inside b", inside); ("outside a", outside) ]

(* ---- reinstalls: update_policy and apply_split recompile ---- *)

(* Serve [h] at every authority switch and compare the reply with the
   oracle over the table that switch would serve it from. *)
let serves_agree d ~cover_limit h =
  List.for_all
    (fun a ->
      let sw = Deployment.switch d a in
      let reply = Switch.serve_miss ?cover_limit sw ~now:0. h in
      match
        List.find_opt
          (fun (p : Partitioner.partition) -> Pred.matches p.region h)
          (Switch.authority_partitions sw)
      with
      | None -> reply = None
      | Some p -> (
          let table = p.Partitioner.table in
          match (reply, Splice_oracle.for_header table h) with
          | None, None -> true
          | Some r, Some piece ->
              let origin = piece.Splice_oracle.origin in
              let expected =
                match cover_limit with
                | Some l when Splice_oracle.dependent_set_cost table origin <= l ->
                    List.map
                      (fun (x : Rule.t) -> (x.pred, Splice_oracle.cache_priority table x))
                      (Splice_oracle.cover_set table origin)
                | _ -> [ (piece.Splice_oracle.pred, Splice_oracle.cache_priority table origin) ]
              in
              r.Switch.origin_id = origin.Rule.id
              && r.Switch.pid = p.Partitioner.pid
              && Action.equal r.Switch.action origin.Rule.action
              && List.equal
                   (fun (p1, r1) (p2, r2) -> Pred.equal p1 p2 && r1 = r2)
                   (List.map (fun ((x : Rule.t), _) -> (x.pred, x.priority)) r.Switch.installs)
                   expected
          | _ -> false))
    (Deployment.authority_ids d)

let prop_reinstalled_tables =
  qt ~count:25 "serve after update_policy and apply_split = oracle"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 0 5))
    (fun (seed, limit) ->
      let cover_limit = if limit = 0 then None else Some limit in
      let rng = Prng.create seed in
      let acl rules = Policy_gen.acl (Prng.split rng) { Policy_gen.default_acl with rules } in
      let d =
        Deployment.build
          ~config:{ Deployment.default_config with k = 4 + Prng.int rng 5 }
          ~policy:(acl 40) ~topology:(Topology.star 6 ()) ~authority_ids:[ 1; 2; 3 ] ()
      in
      let probe d =
        let policy = Deployment.policy d in
        List.for_all
          (fun h -> serves_agree d ~cover_limit h)
          (List.init 10 (fun _ -> random_header rng (Classifier.schema policy) policy))
      in
      let d = Deployment.update_policy d ~now:1. (acl 60) in
      let ok_update = probe d in
      let parts = (Deployment.partitioner d).Partitioner.partitions in
      let split =
        List.find_map
          (fun (p : Partitioner.partition) ->
            Option.map
              (fun x -> (p, x))
              (Partitioner.split_region (Deployment.partitioner d) (Deployment.policy d)
                 ~pid:p.pid))
          parts
      in
      match split with
      | None -> ok_update
      | Some (src, ((lo_pid, lo_region), (hi_pid, hi_region))) ->
          let src_replicas = Assignment.replicas_of (Deployment.assignment d) src.pid in
          let dst = List.find (fun a -> not (List.mem a src_replicas)) [ 1; 2; 3 ] in
          let m =
            { Journal.mid = 1; src_pid = src.pid; src_region = src.region; src_replicas;
              lo_pid; lo_region; lo_replicas = src_replicas; hi_pid; hi_region;
              hi_replicas = [ dst ] }
          in
          let d = Deployment.apply_split d m in
          let ok_split = probe d in
          Deployment.flip_split d;
          ok_update && ok_split && probe d)

(* A table pushed over a live one with the same pid (the control
   channel's [Install_partition]) is served from its own compiled form. *)
let test_replace_by_pid () =
  let sw = Switch.create ~id:0 ~cache_capacity:8 in
  let part action =
    { Partitioner.pid = 0; region = Pred.any Schema.tiny2;
      table = Classifier.of_specs Schema.tiny2 [ (1, [], action) ] }
  in
  Switch.install_authority sw (part (Action.Forward 1));
  Switch.install_authority sw (part (Action.Forward 2));
  match Switch.serve_miss sw ~now:0. (Header.make Schema.tiny2 [| 0L; 0L |]) with
  | Some r -> check action "the replacement's action" (Action.Forward 2) r.Switch.action
  | None -> Alcotest.fail "no table served the miss"

(* ---- the orphan scrub skips only what a full scan would not find ---- *)

(* What an unconditional table-order scan would remove now. *)
let full_scan_doomed sw =
  let cache = Switch.cache sw in
  List.filter_map
    (fun (e : Tcam.entry) ->
      let id = e.Tcam.rule.Rule.id in
      match Switch.cache_meta_of_rule sw id with
      | Some { Switch.group = Some (_, members); _ }
        when not (List.for_all (Tcam.mem cache) members) ->
          Some id
      | _ -> None)
    (Tcam.entries cache)

let removed_ids msgs =
  List.filter_map
    (function Message.Flow_removed fr -> Some fr.Message.removed_rule | _ -> None)
    msgs

let chain =
  Classifier.of_specs Schema.tiny2
    [
      (50, [ ("f1", "0000000x") ], Action.Drop);
      (40, [ ("f1", "000000xx"); ("f2", "1xxxxxxx") ], Action.Forward 2);
      (30, [ ("f1", "00000xxx") ], Action.Forward 1);
      (20, [ ("f2", "11xxxxxx") ], Action.Forward 3);
      (10, [ ("f1", "0000xxxx") ], Action.Forward 1);
      (0, [], Action.Drop);
    ]

let prop_orphan_scrub =
  qt ~count:150 "orphan scrub = full scan over random cache churn"
    QCheck2.Gen.(pair (int_bound 1_000_000) (list_size (int_range 5 60) (int_bound 9)))
    (fun (seed, ops) ->
      let rng = Prng.create seed in
      let sw = Switch.create ~id:0 ~cache_capacity:(3 + Prng.int rng 6) in
      let part = { Partitioner.pid = 0; region = Pred.any Schema.tiny2; table = chain } in
      Switch.install_authority sw part;
      let agg = Aggregate.create (if Prng.bool rng then Aggregate.enabled_default else Aggregate.default) in
      let now = ref 0. in
      let header () =
        Header.make Schema.tiny2 [| Int64.of_int (Prng.int rng 20); Int64.of_int (Prng.int rng 256) |]
      in
      let resident () = ids (List.map (fun (e : Tcam.entry) -> e.Tcam.rule) (Tcam.entries (Switch.cache sw))) in
      let pick () = match resident () with [] -> None | l -> Some (Prng.choose rng (Array.of_list l)) in
      let step op =
        now := !now +. Prng.float rng;
        let now = !now in
        match op with
        | 0 | 1 | 2 -> (
            match Switch.serve_miss ~cover_limit:(1 + Prng.int rng 4) sw ~now (header ()) with
            | Some r -> ignore (Aggregate.install ~idle_timeout:2.0 agg sw ~now r.Switch.installs)
            | None -> ())
        | 3 ->
            let r = Rule.make ~id:(Switch.fresh_cache_id sw) ~priority:0 (Pred.any Schema.tiny2) Action.Drop in
            ignore (Switch.install_cache_rule ~origin_id:5 sw ~now r)
        | 4 -> ignore (Switch.expire_cache sw ~now)
        | 5 -> ignore (Switch.invalidate_cache_pids sw ~now [ 0 ])
        | 6 -> (
            match pick () with
            | Some id ->
                let rule = Rule.make ~id ~priority:0 (Pred.any Schema.tiny2) Action.Drop in
                Switch.apply_flow_mod sw ~now
                  { Message.command = Message.Delete; bank = Message.Cache; rule;
                    idle_timeout = None; hard_timeout = None }
            | None -> ())
        | 7 -> Option.iter (fun id -> ignore (Switch.retire_cache_rule sw ~now Switch.Absorbed id)) (pick ())
        | 8 ->
            (* a group born incomplete: one member never installed *)
            let id = Switch.fresh_cache_id sw in
            let rule = Rule.make ~id ~priority:1 (Pred.any Schema.tiny2) Action.Drop in
            let meta =
              { Switch.pid = 0; kind = Switch.Cover; group = Some (id + 1, [ id; id + 1 ]);
                parts = [ { Switch.part_origin = 5; part_rank = 1; part_pred = rule.Rule.pred } ] }
            in
            ignore (Switch.install_cache_meta sw ~now rule (Some meta))
        | _ ->
            (* behind the switch's back, as a cache flush does *)
            Option.iter (fun id -> ignore (Tcam.remove (Switch.cache sw) id)) (pick ())
      in
      List.for_all
        (fun op ->
          step op;
          ignore (Switch.drain_notifications sw);
          let expected = full_scan_doomed sw in
          let n = Switch.drop_cover_orphans sw ~now:!now in
          n = List.length expected
          && removed_ids (Switch.drain_notifications sw) = expected
          && List.for_all (fun id -> not (Tcam.mem (Switch.cache sw) id)) expected)
        ops)

(* ---- topology: cached trees = a fresh Dijkstra per query ---- *)

(* The search every query used to run (list priority queue, adjacency
   built in link order), from the link list alone. *)
let fresh_dijkstra topo src =
  let n = Topology.nodes topo in
  let adj = Array.make n [] in
  List.iter
    (fun (l : Topology.link) ->
      adj.(l.src) <- (l.dst, l) :: adj.(l.src);
      adj.(l.dst) <- (l.src, l) :: adj.(l.dst))
    (Topology.links topo);
  let dist = Array.make n infinity and prev = Array.make n (-1) in
  dist.(src) <- 0.;
  let q = ref [ (0., src) ] in
  let push prio v =
    let rec go = function
      | [] -> [ (prio, v) ]
      | (p, x) :: rest -> if prio <= p then (prio, v) :: (p, x) :: rest else (p, x) :: go rest
    in
    q := go !q
  in
  let rec loop () =
    match !q with
    | [] -> ()
    | (d, u) :: rest ->
        q := rest;
        if d <= dist.(u) then
          List.iter
            (fun (v, (l : Topology.link)) ->
              let nd = d +. l.latency in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                prev.(v) <- u;
                push nd v
              end)
            adj.(u);
        loop ()
  in
  loop ();
  (dist, prev)

let oracle_path (dist, prev) src dst =
  if src = dst then Some [ src ]
  else if dist.(dst) = infinity then None
  else
    let rec build acc v = if v = src then src :: acc else build (v :: acc) prev.(v) in
    Some (build [] dst)

let topology_agrees topo =
  let n = Topology.nodes topo in
  let trees = Array.init n (fresh_dijkstra topo) in
  let ok = ref true in
  let opt d = if d = infinity then None else Some d in
  for s = 0 to n - 1 do
    let dist, _ = trees.(s) in
    ok := !ok && Topology.all_distances topo s = dist;
    for t = 0 to n - 1 do
      let path = oracle_path trees.(s) s t in
      ok :=
        !ok
        && Topology.shortest_path topo s t = path
        && Topology.distance topo s t = opt dist.(t)
        && Topology.hop_count topo s t = Option.map (fun p -> List.length p - 1) path
        && (Topology.link_between topo s t
           = List.find_opt
               (fun (l : Topology.link) -> (l.src = s && l.dst = t) || (l.src = t && l.dst = s))
               (Topology.links topo))
    done
  done;
  (* stretch through every via for a handful of pairs *)
  for k = 0 to min 5 (n - 1) do
    let s = k and t = n - 1 - k in
    for via = 0 to n - 1 do
      let d a b = (fst trees.(a)).(b) in
      let expected =
        if s = t then 1.0
        else if d s via = infinity || d via t = infinity || d s t = infinity then infinity
        else if d s t > 0. then (d s via +. d via t) /. d s t
        else 1.0
      in
      ok := !ok && Topology.stretch topo ~src:s ~via ~dst:t = expected
    done
  done;
  !ok

let prop_topology_waxman =
  qt ~count:40 "cached paths = fresh Dijkstra on waxman graphs"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 30))
    (fun (seed, nodes) ->
      let rng = Prng.create seed in
      topology_agrees (Topology.waxman ~rand:(fun () -> Prng.float rng) ~nodes ()))

let prop_topology_campus =
  qt ~count:40 "cached paths = fresh Dijkstra on campus graphs"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 20))
    (fun (seed, edge_switches) ->
      let rng = Prng.create seed in
      let topo = Topology.campus ~rand:(fun () -> Prng.float rng) ~edge_switches () in
      (* a failed link leaves parts unreachable: the [infinity] branches *)
      let cut = List.hd (Topology.links topo) in
      topology_agrees topo
      && topology_agrees (Topology.without_node (Topology.without_link topo cut.src cut.dst) 0))

(* Scrubbing a member another group shares breaks that group too; the
   next scrub must find it, as an unconditional scan would. *)
let test_scrub_cascade () =
  let sw = Switch.create ~id:0 ~cache_capacity:16 in
  let agg = Aggregate.create Aggregate.enabled_default in
  let p = Pred.of_strings Schema.tiny2 in
  let cover ~gid ~members id pred rank =
    ( Rule.make ~id ~priority:rank pred Action.Drop,
      { Switch.pid = 0; kind = Switch.Cover; group = Some (gid, members);
        parts = [ { Switch.part_origin = id; part_rank = rank; part_pred = pred } ] } )
  in
  let shared = p [ ("f1", "0000000x") ] in
  ignore
    (Aggregate.install agg sw ~now:0.
       [ cover ~gid:1 ~members:[ 100; 101 ] 100 shared 5;
         cover ~gid:1 ~members:[ 100; 101 ] 101 (p [ ("f2", "1xxxxxxx") ]) 3 ]);
  (* 102 duplicates 100 exactly, so this group takes 100 in its place *)
  ignore
    (Aggregate.install agg sw ~now:0.
       [ cover ~gid:2 ~members:[ 102; 103 ] 102 shared 5;
         cover ~gid:2 ~members:[ 102; 103 ] 103 (p [ ("f1", "00000xxx") ]) 2 ]);
  check (Alcotest.list Alcotest.int) "sharing" [ 100; 101; 103 ]
    (List.sort compare (ids (List.map (fun (e : Tcam.entry) -> e.Tcam.rule) (Tcam.entries (Switch.cache sw)))));
  ignore (Tcam.remove (Switch.cache sw) 101);
  check Alcotest.int "group 1 scrubbed" 1 (Switch.drop_cover_orphans sw ~now:1.);
  check Alcotest.int "then group 2, which lost the shared member" 1
    (Switch.drop_cover_orphans sw ~now:1.);
  check Alcotest.int "cache empty" 0 (Switch.cache_occupancy sw)

let test_all_distances_is_a_copy () =
  let topo = Topology.line 4 () in
  let d = Topology.all_distances topo 0 in
  let before = Topology.distance topo 0 3 in
  d.(3) <- 42.;
  check (Alcotest.option (Alcotest.float 0.)) "unchanged" before (Topology.distance topo 0 3);
  check (Alcotest.float 0.) "fresh copy" (Option.get before) (Topology.all_distances topo 0).(3)

(* ---- the congested leg walker = the hop loop it replaced ---- *)

let hop_loop c topo ~now a b =
  match Topology.shortest_path topo a b with
  | None -> `Ok 0.
  | Some path ->
      let rec go extra elapsed = function
        | [] | [ _ ] -> `Ok extra
        | x :: (y :: _ as rest) -> (
            let l = Option.get (Topology.link_between topo x y) in
            match Congestion.transit c ~now:(now +. elapsed) ~from:x l with
            | `Drop -> `Queue_full
            | `Forward (delay, _) -> go (extra +. delay) (elapsed +. delay +. l.Topology.latency) rest)
      in
      go 0. 0. path

let prop_leg_is_hop_loop =
  qt ~count:60 "Congestion.leg = hop-by-hop transit over the path list"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let nodes = 2 + Prng.int rng 14 in
      let topo = Topology.waxman ~rand:(fun () -> Prng.float rng) ~nodes ~latency_scale:1e-4 () in
      let cfg =
        { Congestion.default with model_bandwidth = true; buffer_capacity = Some (Prng.int rng 4);
          ecn_threshold = Some 1 }
      in
      let fast = Congestion.create cfg and slow = Congestion.create cfg in
      let now = ref 0. in
      List.for_all
        (fun _ ->
          now := !now +. (Prng.float rng *. 2e-6);
          let a = Prng.int rng nodes and b = Prng.int rng nodes in
          let got =
            if Congestion.leg fast topo ~now:!now a b then `Ok (Congestion.leg_delay fast)
            else `Queue_full
          in
          got = hop_loop slow topo ~now:!now a b && Congestion.stats fast = Congestion.stats slow)
        (List.init 200 Fun.id))

(* A dropped packet has no delivery leg: under congestion its delay must
   not pick up the queueing of the leg booked before it. *)
let test_drop_books_no_delivery_leg () =
  let topo =
    Topology.create ~nodes:3
      (List.init 2 (fun i -> { Topology.src = 0; dst = i + 1; latency = 1e-4; bandwidth = 1.2e8 }))
  in
  let delay action =
    let policy = Classifier.of_specs Schema.tiny2 [ (0, [], action) ] in
    let config =
      { Deployment.default_config with k = 1; cache_capacity = 0;
        congestion = { Congestion.default with model_bandwidth = true } }
    in
    let d = Deployment.build ~config ~policy ~topology:topo ~authority_ids:[ 1 ] () in
    let flow =
      { Traffic.flow_id = 0; header = Header.make Schema.tiny2 [| 1L; 2L |]; ingress = 2;
        start = 0.; packets = 1; interval = 1e-3 }
    in
    (Flowsim.run Flowsim.Config.default d [ flow ]).Flowsim.delays.(0)
  in
  (* forwarding to the authority itself has an empty delivery leg too *)
  check (Alcotest.float 1e-12) "drop = local delivery" (delay (Action.Forward 1)) (delay Action.Drop)

let suite =
  [
    ( "serve-path",
      List.map prop_compiled_serve schemas
      @ [
          prop_compiled_serve_acl;
          tc "rules outside the table" test_unknown_rule;
          prop_overlaps_is_inter;
          prop_clip_is_subtract_search;
          prop_clip_wide_fields;
          tc "clip_to_holder preconditions" test_clip_preconditions;
          prop_reinstalled_tables;
          tc "a same-pid reinstall recompiles" test_replace_by_pid;
          prop_orphan_scrub;
          tc "orphan scrub cascades through shared members" test_scrub_cascade;
          prop_topology_waxman;
          prop_topology_campus;
          tc "all_distances returns a copy" test_all_distances_is_a_copy;
          prop_leg_is_hop_loop;
          tc "a drop books no delivery leg" test_drop_books_no_delivery_leg;
        ] );
  ]
