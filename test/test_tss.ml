(* The packed tuple-space index against the field-by-field reference:
   random tables over one-, two- and three-lane schemas, both lookup
   paths (group probe and degenerate scan), incremental removal, and the
   allocation-free guarantee of the per-packet path. *)

open Test_util

(* [tiny2] packs into one lane; [ip_pair] into two, its 64th bit alone
   in the second; [acl_5tuple] into two; [openflow_basic] (136 bits)
   into three. *)
let schemas = [| Schema.tiny2; Schema.ip_pair; Schema.acl_5tuple; Schema.openflow_basic |]

let rand_value st bits =
  let hi = Int64.of_int (Random.State.bits st) and lo = Int64.of_int (Random.State.bits st) in
  Int64.logand
    (Int64.logor (Int64.shift_left hi 30) lo)
    (Int64.sub (Int64.shift_left 1L bits) 1L)

(* A mask shape fixes, per field, which bits are specified: a prefix
   (the common case) or an arbitrary bit mask. *)
let rand_shape st schema =
  Array.init (Schema.arity schema) (fun i ->
      let w = Schema.field_bits schema i in
      match Random.State.int st 3 with
      | 0 -> 0L
      | 1 ->
          let len = Random.State.int st (w + 1) in
          if len = 0 then 0L
          else Int64.shift_left (Int64.sub (Int64.shift_left 1L len) 1L) (w - len)
      | _ -> rand_value st w)

let rand_pred st schema shape =
  Pred.make schema
    (List.init (Schema.arity schema) (fun i ->
         let width = Schema.field_bits schema i in
         Ternary.make ~width ~value:(rand_value st width) ~mask:shape.(i)))

let st_bits st n = Random.State.bits st land ((1 lsl n) - 1)

let rand_header st schema rules =
  if rules <> [||] && Random.State.bool st then
    Pred.random_point (st_bits st) rules.(Random.State.int st (Array.length rules)).Rule.pred
  else
    Header.make schema
      (Array.init (Schema.arity schema) (fun i -> rand_value st (Schema.field_bits schema i)))

(* Few shapes keep tuple search on; many shapes over few entries trip
   the degenerate scan.  Ids come from a small range so duplicate
   (priority, id) pairs exercise the insertion-order tie-break. *)
let rand_rules st schema =
  let shapes =
    Array.init
      (if Random.State.bool st then 1 + Random.State.int st 4 else 10 + Random.State.int st 15)
      (fun _ -> rand_shape st schema)
  in
  let n = Array.length shapes + Random.State.int st 30 in
  Array.init n (fun i ->
      let shape = shapes.(if i < Array.length shapes then i else Random.State.int st (Array.length shapes)) in
      Rule.make ~id:(Random.State.int st 40) ~priority:(Random.State.int st 4)
        (rand_pred st schema shape) Action.Drop)

(* Reference: a stable sort into table order, then the first rule whose
   predicate matches field by field. *)
let reference rules h =
  List.find_opt (fun (r : Rule.t) -> Pred.matches r.pred h)
    (List.stable_sort Rule.compare_priority rules)

let same a b = match (a, b) with None, None -> true | Some x, Some y -> x == y | _ -> false

let prop_packed_equals_reference =
  qt ~count:300 "packed probe = Pred.matches on 1-3 lane schemas"
    QCheck2.Gen.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (si, seed) ->
      let st = Random.State.make [| seed |] in
      let schema = schemas.(si) in
      let rules = rand_rules st schema in
      let t = Tss.create () in
      Array.iter (fun r -> Tss.add t r r) rules;
      let agrees live =
        List.for_all2 ( == ) (Tss.to_list t) (List.stable_sort Rule.compare_priority live)
        && List.for_all
             (fun _ ->
               let h = rand_header st schema rules in
               same (Tss.find t h) (reference live h))
             (List.init 30 Fun.id)
      in
      let patterns_agree =
        Array.for_all
          (fun (r : Rule.t) ->
            let h = rand_header st schema rules in
            Tss.covers (Tss.pattern r.pred) h = Pred.matches r.pred h)
          rules
      in
      (* drop a random half, one entry at a time: groups empty out and
         re-rank as their best priorities leave *)
      let kept, dropped = List.partition (fun _ -> Random.State.bool st) (Array.to_list rules) in
      let first = agrees (Array.to_list rules) in
      let removed = List.for_all (fun r -> Tss.remove t r r) dropped in
      first && patterns_agree && removed
      && (not (Tss.remove t (Rule.with_id rules.(0) 1_000) rules.(0)))
      && Tss.length t = List.length kept
      && agrees kept)

(* The indexed TCAM against the reference table on the same wide
   schemas: every lookup, table order and the index shape. *)
let prop_tcam_wide_schemas =
  qt ~count:100 "indexed TCAM = create_linear on 1-3 lane schemas"
    QCheck2.Gen.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (si, seed) ->
      let st = Random.State.make [| seed |] in
      let schema = schemas.(si) in
      let rules =
        Array.mapi (fun i r -> Rule.with_id r i) (rand_rules st schema)
      in
      let a = Tcam.create ~capacity:64 and b = Tcam.create_linear ~capacity:64 in
      Array.iter (fun r -> ignore (Tcam.insert a ~now:0. r); ignore (Tcam.insert b ~now:0. r)) rules;
      let ids t = List.map (fun (e : Tcam.entry) -> e.Tcam.rule.Rule.id) (Tcam.entries t) in
      ids a = ids b
      && List.for_all
           (fun _ ->
             let h = rand_header st schema rules in
             let look t = Option.map (fun (r : Rule.t) -> r.id) (Tcam.lookup t ~now:1. h) in
             look a = look b)
           (List.init 30 Fun.id))

let test_lane_layout () =
  check Alcotest.int "tiny2 lanes" 1 (Header.lane_count Schema.tiny2);
  check Alcotest.int "ip_pair lanes" 2 (Header.lane_count Schema.ip_pair);
  check Alcotest.int "5-tuple lanes" 2 (Header.lane_count Schema.acl_5tuple);
  check Alcotest.int "openflow_basic lanes" 3 (Header.lane_count Schema.openflow_basic);
  (* two-lane schemas: the lanes are the (key_lo, key_hi) pair *)
  let h =
    Header.make Schema.acl_5tuple [| 0xffffffffL; 0x0a000001L; 65535L; 80L; 6L |]
  in
  let l = Header.lanes h in
  check Alcotest.int64 "lane 0 = key_lo" (Header.key_lo h) (Int64.of_int l.(0));
  check Alcotest.int64 "lane 1 = key_hi" (Header.key_hi h) (Int64.of_int l.(1));
  (* the 3-lane case: dst_port (bits 120-135) straddles lanes 1 and 2,
     its low 6 bits at the top of lane 1, the other 10 at the bottom of
     lane 2 *)
  let o =
    Header.of_fields Schema.openflow_basic [ ("dst_port", 0xbeefL); ("in_port", 3L) ]
  in
  let l = Header.lanes o in
  check Alcotest.int "in_port at bit 0" 3 (l.(0) land 0xffff);
  check Alcotest.int "dst_port low bits in lane 1" (0xbeef land 0x3f) (l.(1) lsr 57);
  check Alcotest.int "dst_port high bits in lane 2" (0xbeef lsr 6) l.(2)

(* Minor words allocated by [f], net of the measurement itself. *)
let words f =
  let measure g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  measure f -. measure ignore

let lookup_words t headers =
  let run n () =
    for i = 0 to n - 1 do
      ignore (Tcam.lookup t ~now:1. headers.(i land 255))
    done
  in
  run 1000 ();
  words (run 1000)

let test_lookup_allocates_nothing () =
  let prefixes =
    Policy_gen.prefix_table (Prng.create 11) { Policy_gen.default_prefixes with prefixes = 512 }
  in
  let load t rules =
    List.iter (fun r -> ignore (Tcam.insert t ~now:0. r)) rules;
    t
  in
  let indexed = load (Tcam.create ~capacity:1024) (Classifier.rules prefixes) in
  check Alcotest.bool "prefix table probes groups" false (Tcam.index_degenerate indexed);
  let headers = Traffic.headers_for (Prng.create 12) prefixes 256 in
  Array.iter
    (fun h -> check Alcotest.bool "warm-up hit" true (Tcam.peek indexed h <> None))
    headers;
  check (Alcotest.float 0.) "1,000 indexed hits" 0. (lookup_words indexed headers);
  let acl = Policy_gen.acl (Prng.create 13) { Policy_gen.default_acl with rules = 200 } in
  let scanned = load (Tcam.create ~capacity:1024) (Classifier.rules acl) in
  check Alcotest.bool "random-mask ACL scans" true (Tcam.index_degenerate scanned);
  let headers = Traffic.headers_for (Prng.create 14) acl 256 in
  Array.iter
    (fun h -> check Alcotest.bool "warm-up hit" true (Tcam.peek scanned h <> None))
    headers;
  check (Alcotest.float 0.) "1,000 degenerate hits" 0. (lookup_words scanned headers);
  (* the field-by-field test behind hit attribution and linear scans *)
  let p = (List.hd (Classifier.rules acl)).Rule.pred in
  check (Alcotest.float 0.) "Pred.matches" 0.
    (words (fun () ->
         for i = 0 to 999 do
           ignore (Pred.matches p headers.(i land 255))
         done))

(* A cache hit through the whole ingress path, provenance ledgers
   included, allocates only its verdict. *)
let test_switch_hit_words () =
  let sw = Switch.create ~id:1 ~cache_capacity:16 in
  let rule =
    Rule.make ~id:7 ~priority:3
      (Pred.of_fields Schema.acl_5tuple
         [ ("src_ip", Ternary.of_ipv4 "10.0.0.0/8"); ("proto", Ternary.exact ~width:8 6L) ])
      (Action.Forward 2)
  in
  ignore (Switch.install_cache_rule ~origin_id:5 ~pid:2 sw ~now:0. rule);
  let h = Header.of_fields Schema.acl_5tuple [ ("src_ip", 0x0a010203L); ("proto", 6L) ] in
  let run n () =
    for _ = 1 to n do
      ignore (Switch.process sw ~now:1. h)
    done
  in
  run 10 ();
  check Alcotest.bool "hits the cache" true
    (match Switch.process sw ~now:1. h with Switch.Local (_, Switch.Cache_bank) -> true | _ -> false);
  check Alcotest.bool "at most 3 words per hit" true (words (run 1000) <= 3000.);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int64)) "ledger counted in place"
    [ (2, 1011L) ] (Switch.cache_load sw)

let suite =
  [
    ( "tss",
      [
        prop_packed_equals_reference;
        prop_tcam_wide_schemas;
        tc "lane layout" test_lane_layout;
        tc "lookup allocates nothing" test_lookup_allocates_nothing;
        tc "switch cache hit allocates its verdict only" test_switch_hit_words;
      ] );
  ]
