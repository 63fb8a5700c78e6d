(* Differential testing of the TCAM's tuple-space fast path: every
   operation sequence is executed against an indexed table and a
   linear-scan table ([Tcam.create_linear]); both must agree on every
   observable — the rule each lookup chooses (including priority ties and
   replace/evict/expire interleavings), the displaced sets, occupancy,
   stats, and the per-entry counters.  The linear table IS the reference
   semantics, so any divergence is an index-maintenance bug. *)

open Test_util

let s2 = Schema.tiny2

(* Predicates drawn from a small pool of mask SHAPES (per-field prefix
   lengths) so mask vectors collide and the tuple-space index actually
   groups — the non-degenerate regime where the fast path runs. *)
let gen_prefix_pred =
  let open QCheck2.Gen in
  let field =
    let* len = oneofl [ 0; 2; 4; 8 ] in
    let* v = int_bound 255 in
    return
      (Ternary.of_string
         (String.init 8 (fun i ->
              if i < len then if (v lsr (7 - i)) land 1 = 1 then '1' else '0'
              else 'x')))
  in
  let* a = field in
  let* b = field in
  return (Pred.make s2 [ a; b ])

type op =
  | Insert of int * int * Pred.t * bool * bool  (* id, prio, pred, idle?, hard? *)
  | Insert_or_evict of int * int * Pred.t
  | Lookup of int * int
  | Expire
  | Remove of int
  | Advance of float

let gen_op =
  let open QCheck2.Gen in
  oneof
    [
      (let* id = int_bound 20 in
       let* pr = int_bound 3 in
       (* small range => frequent priority ties, broken by rule id *)
       let* pd = gen_prefix_pred in
       let* idle = bool in
       let* hard = bool in
       return (Insert (id, pr, pd, idle, hard)));
      (let* id = int_bound 20 in
       let* pr = int_bound 3 in
       let* pd = gen_prefix_pred in
       return (Insert_or_evict (id, pr, pd)));
      (let* a = int_bound 255 in
       let* b = int_bound 255 in
       return (Lookup (a, b)));
      return Expire;
      (int_bound 20 >|= fun id -> Remove id);
      (float_bound_inclusive 2. >|= fun dt -> Advance dt);
    ]

let entry_sig (e : Tcam.entry) = (e.Tcam.rule.Rule.id, e.Tcam.packets, e.Tcam.bytes)
let displ_sig (d : Tcam.displaced) =
  ( List.map entry_sig d.Tcam.evicted,
    Option.map entry_sig d.Tcam.replaced,
    d.Tcam.bounced )

let insert_sig = function
  | `Ok -> `Ok
  | `Full -> `Full
  | `Replaced e -> `Replaced (entry_sig e)

let stats_sig (s : Tcam.stats) =
  (s.Tcam.hits, s.Tcam.misses, s.Tcam.inserts, s.Tcam.evictions, s.Tcam.expirations)

let table_sig t = List.map entry_sig (Tcam.entries t)

let run_ops ops =
  let a = Tcam.create ~capacity:8 in
  let b = Tcam.create_linear ~capacity:8 in
  let clock = ref 0. in
  List.for_all
    (fun op ->
      let step_agrees =
        match op with
        | Advance dt ->
            clock := !clock +. dt;
            true
        | Insert (id, priority, pd, idle, hard) ->
            let rule = Rule.make ~id ~priority pd Action.Drop in
            let idle = if idle then Some 1.0 else None in
            let hard = if hard then Some 3.0 else None in
            let ins t =
              insert_sig
                (Tcam.insert ?idle_timeout:idle ?hard_timeout:hard t ~now:!clock rule)
            in
            ins a = ins b
        | Insert_or_evict (id, priority, pd) ->
            let rule = Rule.make ~id ~priority pd Action.Drop in
            let ins t =
              displ_sig (Tcam.insert_or_evict_entries ~idle_timeout:1.0 t ~now:!clock rule)
            in
            ins a = ins b
        | Lookup (x, y) ->
            let h = Header.make s2 [| Int64.of_int x; Int64.of_int y |] in
            let look t =
              Option.map (fun (r : Rule.t) -> r.id) (Tcam.lookup t ~now:!clock h)
            in
            look a = look b
        | Expire ->
            let exp t =
              List.map (fun (r : Rule.t) -> r.id) (Tcam.expire t ~now:!clock)
            in
            exp a = exp b
        | Remove id -> Tcam.remove a id = Tcam.remove b id
      in
      step_agrees
      && Tcam.occupancy a = Tcam.occupancy b
      && stats_sig (Tcam.stats a) = stats_sig (Tcam.stats b)
      && table_sig a = table_sig b)
    ops

let prop_index_equals_linear =
  qt ~count:400 "indexed TCAM = linear TCAM on random op sequences"
    QCheck2.Gen.(list_size (int_range 1 80) gen_op)
    run_ops

(* A same-shape rule pool keeps the group count tiny; the heuristic must
   keep the fast path on.  All-distinct exact predicates (one group per
   entry) must trip the fallback. *)
let test_degenerate_heuristic () =
  let t = Tcam.create ~capacity:64 in
  for i = 0 to 31 do
    let bits =
      String.init 8 (fun k -> if (i lsr (7 - k)) land 1 = 1 then '1' else 'x')
    in
    ignore
      (Tcam.insert t ~now:0.
         (Rule.make ~id:i ~priority:i
            (Pred.of_strings s2 [ ("f1", bits) ])
            Action.Drop))
  done;
  check Alcotest.bool "many groups on distinct shapes" true (Tcam.index_groups t > 8);
  check Alcotest.bool "degenerate" true (Tcam.index_degenerate t);
  let t2 = Tcam.create ~capacity:64 in
  for i = 0 to 31 do
    let bits =
      String.init 8 (fun k ->
          if k < 5 then if (i lsr (4 - k)) land 1 = 1 then '1' else '0' else 'x')
    in
    ignore
      (Tcam.insert t2 ~now:0.
         (Rule.make ~id:i ~priority:1
            (Pred.of_strings s2 [ ("f1", bits) ])
            Action.Drop))
  done;
  check Alcotest.int "one shared mask shape" 1 (Tcam.index_groups t2);
  check Alcotest.bool "fast path on" false (Tcam.index_degenerate t2);
  let t3 = Tcam.create_linear ~capacity:64 in
  check Alcotest.bool "linear table always degenerate" true (Tcam.index_degenerate t3)

(* Expiry and eviction are separate counters: timeout churn must land in
   [expirations], LRU victims in [evictions], and the registry mirrors
   (tcam_evictions / tcam_expirations) must move in step. *)
let test_expirations_split_from_evictions () =
  let snap0 = Telemetry.snapshot () in
  let tele name = Telemetry.counter_total snap0 name in
  let ev0 = tele "tcam_evictions" and ex0 = tele "tcam_expirations" in
  let t = Tcam.create ~capacity:2 in
  let rule id bits = Rule.make ~id ~priority:1 (Pred.of_strings s2 [ ("f1", bits) ]) Action.Drop in
  ignore (Tcam.insert ~idle_timeout:1. t ~now:0. (rule 1 "0000_0001"));
  ignore (Tcam.insert t ~now:0.5 (rule 2 "0000_0010"));
  (* rule 1 idles out: an expiration, not an eviction *)
  check Alcotest.int "one expired" 1 (List.length (Tcam.expire t ~now:2.));
  (* rule 3 squeezes rule 2 out: an eviction, not an expiration *)
  ignore (Tcam.insert t ~now:3. (rule 3 "0000_0011"));
  ignore (Tcam.insert_or_evict t ~now:4. (rule 4 "0000_0100"));
  let s = Tcam.stats t in
  check Alcotest.int64 "expirations" 1L s.Tcam.expirations;
  check Alcotest.int64 "evictions" 1L s.Tcam.evictions;
  let snap1 = Telemetry.snapshot () in
  let tele1 name = Telemetry.counter_total snap1 name in
  check Alcotest.int "registry evictions" (ev0 + 1) (tele1 "tcam_evictions");
  check Alcotest.int "registry expirations" (ex0 + 1) (tele1 "tcam_expirations");
  Tcam.reset_stats t;
  let s = Tcam.stats t in
  check Alcotest.int64 "expirations reset" 0L s.Tcam.expirations;
  check Alcotest.int64 "evictions reset" 0L s.Tcam.evictions

(* The Replaced path must hand back the displaced entry with its final
   counters — OpenFlow flow-mod semantics; silently dropping them was the
   counter-loss bug. *)
let test_replace_returns_final_counters () =
  let t = Tcam.create ~capacity:4 in
  let r1 = Rule.make ~id:9 ~priority:1 (Pred.of_strings s2 [ ("f1", "0000_0001") ]) Action.Drop in
  ignore (Tcam.insert t ~now:0. r1);
  ignore (Tcam.lookup t ~now:1. ~bytes:100 (Header.make s2 [| 1L; 0L |]));
  ignore (Tcam.lookup t ~now:2. ~bytes:100 (Header.make s2 [| 1L; 0L |]));
  let r1' = Rule.make ~id:9 ~priority:5 (Pred.of_strings s2 [ ("f1", "0000_001x") ]) Action.Drop in
  (match Tcam.insert t ~now:3. r1' with
  | `Replaced e ->
      check Alcotest.int "final packets" 2 e.Tcam.packets;
      check Alcotest.int "final bytes" 200 e.Tcam.bytes
  | `Ok | `Full -> Alcotest.fail "expected `Replaced");
  check Alcotest.int "occupancy unchanged" 1 (Tcam.occupancy t);
  (* the replacement is also surfaced through insert_or_evict_entries *)
  let d = Tcam.insert_or_evict_entries t ~now:4. (Rule.make ~id:9 ~priority:1 (Pred.any s2) Action.Drop) in
  check Alcotest.bool "replaced entry surfaced" true (Option.is_some d.Tcam.replaced);
  check (Alcotest.list Alcotest.int) "no eviction on same-id reinstall" []
    (List.map (fun (e : Tcam.entry) -> e.Tcam.rule.Rule.id) d.Tcam.evicted)

let suite =
  [
    ( "tcam index",
      [
        prop_index_equals_linear;
        tc "degenerate-case heuristic" test_degenerate_heuristic;
        tc "expirations split from evictions" test_expirations_split_from_evictions;
        tc "replace returns final counters" test_replace_returns_final_counters;
      ] );
  ]
