(* The benchmark's workloads.  Every input is generated here from the
   seed through the library's public generators ([Policy_gen], [Traffic],
   [Prng]); the simulator only ever receives the generated values. *)

type shard = {
  policy : Classifier.t;
  topology : Topology.t;
  authority_ids : int list;
  config : Deployment.config;
  flows : Traffic.flow list;
}

type churn = {
  interval : float;  (** simulated seconds between controller ticks *)
  churn_seed : int;
  origins : int array;  (** policy rule ids a tick may invalidate *)
}

type t = {
  shards : shard array;
  sharded : bool;  (** driven through [Flowsim.run_sharded] *)
  monitor : bool;  (** a [Monitor] watches the run *)
  churn : churn option;  (** controller hook invalidating cached origins *)
}

type size = Full | Small

let names = [ "escale"; "hot-zipf"; "miss-churn" ]

let offered_flows w =
  Array.fold_left (fun n s -> n + List.length s.flows) 0 w.shards

let offered_packets w =
  Array.fold_left
    (fun n s -> List.fold_left (fun n (f : Traffic.flow) -> n + f.packets) n s.flows)
    0 w.shards

(* One header drawn uniformly from the whole flowspace. *)
let uniform_header rng schema =
  Header.make schema
    (Array.init (Schema.arity schema) (fun f ->
         let bits = Schema.field_bits schema f in
         Int64.logand (Prng.int64 rng) (Int64.pred (Int64.shift_left 1L bits))))

(* E-SCALE decomposition: independent 8-switch stars, one authority
   each, a 120-rule ACL per shard, uniform single-packet Poisson flows
   at 50k flows/s per shard, aggregation off.  The hit share grows with
   flows per shard, so [flows_per_shard] is part of the definition. *)
let escale ~seed size =
  let shards, flows_per_shard = match size with Full -> (16, 4096) | Small -> (4, 256) in
  let spokes = 7 in
  let shard s =
    let policy =
      Policy_gen.acl
        (Prng.create (seed + (7919 * (s + 1))))
        { Policy_gen.default_acl with rules = 120; chains = 10; chain_depth = 4; egresses = 4 }
    in
    let schema = Classifier.schema policy in
    let rng = Prng.create (seed + (104729 * (s + 1))) in
    let now = ref 0. in
    let flows =
      List.init flows_per_shard (fun flow_id ->
          now := !now +. Prng.exponential rng ~rate:50_000.;
          { Traffic.flow_id; header = uniform_header rng schema;
            ingress = 2 + (flow_id mod (spokes - 1)); start = !now; packets = 1;
            interval = 1e-4 })
    in
    {
      policy;
      topology = Topology.star (spokes + 1) ~latency:100e-6 ();
      authority_ids = [ 1 ];
      config =
        { Deployment.default_config with k = 8; cache_idle_timeout = Some 1.0;
          balance = `Volume };
      flows;
    }
  in
  { shards = Array.init shards shard; sharded = true; monitor = false; churn = None }

(* The single-deployment workloads keep one rule set, one header
   population and one popularity order for every seed: drawn afresh,
   these alone moved ingress cost up to 2x between seeds.  The seed draws the flows —
   which header each one carries, arrivals and ingresses.  Flows have a
   fixed length: a long-tailed length would let a few draws decide
   which headers carry the packets. *)
let policy_seed = 20100830

let zipf_flows ~seed ~policy ~ingresses ~flows ~rate ~alpha ~headers ~packets ~interval =
  let fixed = Prng.create (policy_seed + 1) in
  let population = Traffic.headers_for fixed policy headers in
  Prng.shuffle fixed population;
  let zipf = Zipf.create ~n:headers ~alpha in
  let ingresses = Array.of_list ingresses in
  let rng = Prng.create seed in
  let now = ref 0. in
  List.init flows (fun flow_id ->
      now := !now +. Prng.exponential rng ~rate;
      let header = population.(Zipf.draw zipf rng - 1) in
      let ingress = Prng.choose rng ingresses in
      { Traffic.flow_id; header; ingress; start = !now; packets; interval })

(* 8-switch star of 1 Gb/s, 100 us links: hub 0, authorities 1-3,
   ingresses 4-7. *)
let star8 =
  Topology.create ~nodes:8
    (List.init 7 (fun i ->
         { Topology.src = 0; dst = i + 1; latency = 100e-6; bandwidth = 1e9 }))
let star8_authorities = [ 1; 2; 3 ]
let star8_ingresses = [ 4; 5; 6; 7 ]

(* Ingress-bound: Zipf(1.0) over 2,000 headers, 20-packet flows at 1 ms
   spacing, so nearly every packet hits the ingress cache; monitor and
   credit-mode congestion ride on every packet. *)
let hot_zipf ~seed size =
  let flows = match size with Full -> 6000 | Small -> 300 in
  let policy = Policy_gen.acl (Prng.create policy_seed) { Policy_gen.default_acl with rules = 400 } in
  let congestion =
    { Congestion.default with mode = Congestion.Credit; model_bandwidth = true;
      ecn_threshold = Some 2; credit_pool = 64; credit_low_water = 4 }
  in
  let flows =
    zipf_flows ~seed ~policy ~ingresses:star8_ingresses ~flows ~rate:10_000. ~alpha:1.0
      ~headers:2000 ~packets:20 ~interval:1e-3
  in
  {
    shards =
      [| { policy; topology = star8; authority_ids = star8_authorities;
           config = { Deployment.default_config with cache_capacity = 1000; congestion };
           flows } |];
    sharded = false;
    monitor = true;
    churn = None;
  }

(* Writes beside reads: small caches, a short idle timeout and cover-set
   aggregation over a wide Zipf(0.6) population, with a controller
   invalidating one random origin rule every 2 ms. *)
let miss_churn ~seed size =
  let flows = match size with Full -> 6000 | Small -> 500 in
  let policy = Policy_gen.acl (Prng.create policy_seed) { Policy_gen.default_acl with rules = 1000 } in
  let flows =
    zipf_flows ~seed ~policy ~ingresses:star8_ingresses ~flows ~rate:10_000. ~alpha:0.6
      ~headers:20_000 ~packets:2 ~interval:1e-3
  in
  let origins = Array.of_list (List.map (fun (r : Rule.t) -> r.id) (Classifier.rules policy)) in
  {
    shards =
      [| { policy; topology = star8; authority_ids = star8_authorities;
           config =
             { Deployment.default_config with k = 16; cache_capacity = 128;
               cache_idle_timeout = Some 0.05; aggregation = Aggregate.enabled_default };
           flows } |];
    sharded = false;
    monitor = false;
    churn = Some { interval = 2e-3; churn_seed = seed lxor 0x5eed; origins };
  }

let make ~seed ?(size = Full) name =
  match name with
  | "escale" -> escale ~seed size
  | "hot-zipf" -> hot_zipf ~seed size
  | "miss-churn" -> miss_churn ~seed size
  | _ -> invalid_arg ("unknown workload " ^ name)

let build_deployment s =
  Deployment.build ~config:s.config ~policy:s.policy ~topology:s.topology
    ~authority_ids:s.authority_ids ()

(* The churn controller: each tick invalidates the cache entries of one
   seeded-random origin rule and enforces cache timeouts (the simulator
   only expires entries when asked). *)
type churner = { c : churn; rng : Prng.t }

let churner c = { c; rng = Prng.create c.churn_seed }

let next_origin ch = ch.c.origins.(Prng.int ch.rng (Array.length ch.c.origins))
