(* One benchmark run: generate the workload, time the simulator's public
   entry point with tracing off, check its outputs, then walk the same
   packets layer by layer for the per-layer metrics. *)

open Workloads

let now_ns = Spans.now_ns
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

type metric = { name : string; value : float; unit_ : string }

type report = {
  correct : bool;
  failures : string list;  (** violated checks, empty when correct *)
  attempted : int;  (** offered flows *)
  failed : int;  (** dropped, outage-dropped or mis-forwarded flows *)
  end_to_end : metric list;  (** gated, as listed in BENCHMARK.json *)
  per_layer : metric list;  (** the walk and the layers' counters *)
  simulated : metric list;
      (** simulated end-to-end figures, reported with the per-layer
          metrics because they are 0 or fixed by the topology on some
          workloads and cannot carry a relative bound *)
  walls : float list;  (** seconds inside each timed run call *)
  two_domain_wall : float option;  (** the sharded run at 2 domains *)
  spans : Spans.t;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- set-up and the timed call ---- *)

type setup = {
  deployments : Deployment.t array;
  monitor : Monitor.t option;
  build_s : float;  (** [Deployment.build] over every shard *)
  setup_s : float;  (** [build_s] plus [Monitor.create] *)
}

let setup w =
  let t0 = now_ns () in
  let deployments = Array.map build_deployment w.shards in
  let t1 = now_ns () in
  let monitor = if w.monitor then Some (Monitor.create deployments.(0)) else None in
  let t2 = now_ns () in
  { deployments; monitor; build_s = seconds_between t0 t1; setup_s = seconds_between t0 t2 }

let churn_hook c d =
  let ch = churner c in
  fun ~now ->
    let o = next_origin ch in
    ignore (Deployment.invalidate_origins ~now d ~origins:(fun x -> x = o));
    ignore (Deployment.expire_caches d ~now)

let simulate ?(domains = 1) w s =
  if w.sharded then
    Flowsim.run_sharded { Flowsim.Config.default with domains }
      ~shards:(Array.length w.shards)
      ~deployment:(fun i -> s.deployments.(i))
      ~flows:(fun i -> w.shards.(i).flows)
  else
    let d = s.deployments.(0) in
    let cfg =
      match w.churn with
      | None -> { Flowsim.Config.default with monitor = s.monitor }
      | Some c ->
          { Flowsim.Config.default with monitor = s.monitor;
            controller = Some (churn_hook c d); controller_interval = c.interval }
    in
    Flowsim.run cfg d w.shards.(0).flows

(* Host speed.  The host runs the same work up to 2x slower for
   stretches of seconds to minutes (process CPU time slows with the wall
   clock, so the slowdown is in the hardware it shares).  Between two
   sets of runs of the same code the raw median set-up time moved 38%
   and the raw median throughput 29%.  A fixed piece of work owned by the
   benchmark (hashing, allocation and pointer chasing over a few MB) is
   timed before every timed run; it slows with the host, so its median
   scales the gated host times to a reference host on which it takes
   [reference_kernel_ns].  It does not depend on the simulator's code,
   so a slower simulator still reads slower. *)
let reference_kernel_ns = 40e6

let kernel_ns () =
  let t0 = now_ns () in
  let table = Hashtbl.create 1024 in
  for i = 0 to 50_000 do
    Hashtbl.replace table ((i * 7919) land 0x3ffff) (Int64.of_int i, [ i ])
  done;
  let acc = ref 0 in
  for i = 0 to 200_000 do
    match Hashtbl.find_opt table (i land 0x3ffff) with
    | Some (_, l) -> acc := !acc + List.length l
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now_ns () - t0)

type timed = {
  s : setup;
  r : Flowsim.result;
  wall_s : float;
  words : float;
  postcards : int;  (** [Ptrace.emitted] when traced, else 0 *)
}

(* Set-up and the run each start on a collected heap, so neither pays
   for the garbage of what ran before it. *)
let clean_setup w =
  Gc.full_major ();
  setup w

(* A fresh deployment, then the run call alone under the clock and the
   minor-words counter.  With [ptrace] the run records postcards into
   rings allocated before the clock starts. *)
let timed ?domains ?(ptrace = false) w =
  let s = clean_setup w in
  if ptrace then Ptrace.enable ~capacity:4096 ();
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = simulate ?domains w s in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let postcards =
    if not ptrace then 0
    else begin
      Ptrace.disable ();
      let n = Ptrace.emitted () in
      (* re-enabling replaces the rings: drop the recorded postcards *)
      Ptrace.enable ~capacity:1 ();
      Ptrace.disable ();
      n
    end
  in
  { s; r; wall_s = seconds_between t0 t1; words = w1 -. w0; postcards }

(* Canonical fingerprint of a result: every field, sample arrays
   included.  Results are plain data, so Marshal is a stable form. *)
let digest (r : Flowsim.result) = Digest.to_hex (Digest.string (Marshal.to_string r []))

(* ---- correctness ---- *)

(* A seeded probe sample per shard: headers the workload sends plus
   uniform headers from the whole flowspace. *)
let probes ~seed w =
  let per_shard = max 32 (256 / Array.length w.shards) in
  Array.mapi
    (fun i s ->
      let rng = Prng.create (seed + (31 * (i + 1))) in
      let sent = Array.of_list s.flows in
      let schema = Classifier.schema s.policy in
      List.init per_shard (fun k ->
          if k mod 2 = 0 then (Prng.choose rng sent).Traffic.header
          else uniform_header rng schema))
    w.shards

let check_run ~offered ~reference ~probes t =
  let r = t.r in
  List.filter_map
    (fun (ok, msg) -> if ok then None else Some msg)
    [
      (r.Flowsim.offered_flows = offered, "offered flows differ from the workload");
      (r.completed_flows + r.dropped_flows = r.offered_flows,
       "flow conservation: completed + dropped <> offered");
      (digest r = reference, "result digest differs from the same-seed reference run");
      (Array.for_all2 Deployment.semantically_equal t.s.deployments probes,
       "Deployment.semantically_equal fails on the probe sample");
    ]

(* ---- simulated and per-layer measurements ---- *)

let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  Spans.percentile a p

let tcam_sum (s : setup) f =
  Array.fold_left
    (fun n d ->
      Array.fold_left (fun n sw -> n + Int64.to_int (f (Tcam.stats (Switch.cache sw)))) n
        (Deployment.switches d))
    0 s.deployments

(* The workload's packet-arrival schedule replayed through a bare engine
   with a no-op handler: the dispatch cost per event. *)
let engine_replay w =
  let ns = ref 0 and words = ref 0. and events = ref 0 in
  Array.iter
    (fun s ->
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let e = Engine.create () in
      let k = Engine.kind e ignore in
      List.iteri
        (fun idx (f : Traffic.flow) ->
          Engine.post e ~at:f.start k ((idx lsl 1) lor 1);
          for i = 1 to f.packets - 1 do
            Engine.post e ~at:(f.start +. (float_of_int i *. f.interval)) k (idx lsl 1)
          done)
        s.flows;
      Engine.run e;
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      ns := !ns + (t1 - t0);
      words := !words +. (w1 -. w0);
      events := !events + Engine.processed e)
    w.shards;
  let n = float_of_int (max 1 !events) in
  (float_of_int !ns /. n, !words /. n)

let partitioner_ms w =
  let once () =
    let t0 = now_ns () in
    Array.iter
      (fun s ->
        ignore
          (Partitioner.compute ~heuristic:s.config.Deployment.heuristic s.policy
             ~k:s.config.Deployment.k))
      w.shards;
    seconds_between t0 (now_ns ()) *. 1e3
  in
  median (List.init 3 (fun _ -> once ()))

let events_dispatched = Telemetry.counter "engine_events_dispatched"

(* ---- the run ---- *)

(* What a timed run leaves once it has been checked: its result and
   deployments are dropped, so the heap does not grow with the number of
   runs that fit in the window. *)
type sample = { traced : bool; wall : float; minor : float; emitted : int }

let sample ~traced t = { traced; wall = t.wall_s; minor = t.words; emitted = t.postcards }

(* Postcard cost from adjacent (untraced, traced) pairs: neighbours in
   time share the host's speed, so the median difference cancels drift
   that a single traced run against the whole window would not. *)
let rec ptrace_costs = function
  | u :: t :: rest when (not u.traced) && t.traced ->
      ((t.wall -. u.wall) *. 1e9 /. float_of_int (max 1 t.emitted)) :: ptrace_costs rest
  | _ -> []

(* Set-ups timed per timed run: the run's own plus extra ones, so the
   set-up samples spread over the window as the run walls do. *)
let setups_per_run = 3

let run ?(size = Full) ?(min_reps = 3) ?(trace = false) ~seed ~seconds name =
  let w = make ~seed ~size name in
  let offered = offered_flows w in
  let flows_f = float_of_int offered in
  let probes = probes ~seed w in
  let failures = ref [] in
  let fail msgs = failures := !failures @ msgs in
  (* Reference run: fixes the digest every later run must reproduce and
     settles lazily initialised state. *)
  let ev0 = Telemetry.value events_dispatched in
  let reference = timed w in
  let events = Telemetry.value events_dispatched - ev0 in
  (* the heap's peak at the end of one run, before later runs touch it *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let ref_digest = digest reference.r in
  let checked ?(label = "") t =
    fail (List.map (fun m -> label ^ m) (check_run ~offered ~reference:ref_digest ~probes t))
  in
  (* read before the probe check's injections touch the caches *)
  let writes = tcam_sum reference.s (fun st -> st.Tcam.inserts) in
  let evictions = tcam_sum reference.s (fun st -> st.Tcam.evictions) in
  let expirations = tcam_sum reference.s (fun st -> st.Tcam.expirations) in
  checked reference;
  (* Timed runs, each on a fresh deployment, until the window closes.
     With [trace] every second run records postcards. *)
  let setups = ref [] and kernel = ref [] in
  let set_up s = setups := (s.setup_s, s.build_s) :: !setups in
  let t_start = now_ns () in
  let rec loop n untraced acc =
    if untraced >= min_reps && seconds_between t_start (now_ns ()) >= seconds then List.rev acc
    else begin
      let traced = trace && n mod 2 = 1 in
      for _ = 1 to 3 do
        kernel := kernel_ns () :: !kernel
      done;
      let t = timed ~ptrace:traced w in
      checked ~label:(if traced then "with Ptrace on: " else "") t;
      set_up t.s;
      for _ = 2 to setups_per_run do
        set_up (clean_setup w)
      done;
      loop (n + 1) (if traced then untraced else untraced + 1) (sample ~traced t :: acc)
    end
  in
  let runs = loop 0 0 [] in
  let plain = List.filter (fun x -> not x.traced) runs in
  (* Postcard tracing on must not change the result. *)
  if not (List.exists (fun x -> x.traced) runs) then
    checked ~label:"with Ptrace on: " (timed ~ptrace:true w);
  let two_domain = if w.sharded then Some (timed ~domains:2 w) else None in
  Option.iter (checked ~label:"at 2 domains: ") two_domain;
  let setups = !setups in
  let wall = median (List.map (fun x -> x.wall) plain) in
  let kernel = median !kernel in
  (* host seconds -> seconds on the reference host *)
  let at_reference t = t *. reference_kernel_ns /. kernel in
  let words = (List.hd plain).minor in
  if List.exists (fun x -> x.minor <> words) plain then
    fail [ "minor words of the run call differ between same-seed runs" ];
  (* The walk: every packet's action against the policy, and the spans.
     With [trace] it is bracketed by untraced runs, whose mean wall is
     the one its span time is set against. *)
  let bracket () =
    if trace then begin
      let t = timed w in
      checked t;
      Some t.wall_s
    end
    else None
  in
  let before = bracket () in
  let wk = Walk.walk w in
  let after = bracket () in
  if wk.packets <> offered_packets w then fail [ "the walk did not cross every packet" ];
  if wk.mismatches > 0 then
    fail [ Printf.sprintf "%d walked packets got a different action than the policy" wk.mismatches ];
  let r = reference.r in
  let failed = r.dropped_flows + r.outage_drops + wk.mismatched_flows in
  let pct p = 1e6 *. percentile r.miss_delays p in
  let m name unit_ value = { name; value; unit_ } in
  let end_to_end =
    [
      m "flows_per_s" "flows/s" (flows_f /. at_reference wall);
      m "words_per_flow" "words" (words /. flows_f);
      m "peak_heap_mb" "MiB"
        (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      m "setup_s" "s" (at_reference (median (List.map fst setups)));
      m "cache_hit_ratio" "ratio"
        (float_of_int r.cache_hit_packets /. float_of_int (max 1 r.delivered_packets));
      m "tcam_writes_per_flow" "writes" (float_of_int writes /. flows_f);
    ]
  in
  let simulated =
    [
      m "flowsim.sim_setup_p50_us" "us" (pct 0.50);
      m "flowsim.sim_setup_p99_us" "us" (pct 0.99);
      m "flowsim.miss_samples" "count" (float_of_int (Array.length r.miss_delays));
      m "flowsim.flow_loss" "ratio" (float_of_int failed /. flows_f);
    ]
  in
  let summaries = List.map (fun l -> (l, Spans.summarize wk.spans l)) Spans.layers in
  let layer (l, (s : Spans.summary)) =
    let n = Spans.layer_name l in
    [
      m (n ^ ".calls") "count" (float_of_int s.calls);
      m (n ^ ".ns_p50") "ns" s.ns_p50;
      m (n ^ ".ns_p99") "ns" s.ns_p99;
      m (n ^ ".words_per_call") "words" s.words_per_call;
      m (n ^ ".busy_ms") "ms" (float_of_int s.busy_ns *. 1e-6);
    ]
  in
  let busy_ns = List.fold_left (fun n (_, (s : Spans.summary)) -> n + s.busy_ns) 0 summaries in
  let ns_per_event, words_per_event = engine_replay w in
  let served, rejected =
    List.fold_left
      (fun (s, j) (a : Flowsim.authority_stat) -> (s + a.misses_served, j + a.misses_rejected))
      (0, 0) r.authority_stats
  in
  let walk_wall =
    match (before, after) with Some a, Some b -> (a +. b) /. 2. | _ -> wall
  in
  let per_layer =
    List.concat_map layer summaries
    @ [
        m "tcam.mask_groups_max" "count" (float_of_int wk.mask_groups_max);
        m "tcam.occupancy_max" "count" (float_of_int wk.occupancy_max);
        m "tcam.evictions_per_flow" "count" (float_of_int evictions /. flows_f);
        m "tcam.expirations_per_flow" "count" (float_of_int expirations /. flows_f);
        m "aggregate.install.merges" "count" (float_of_int wk.merges);
        m "aggregate.suppressed_ratio" "ratio"
          (float_of_int wk.suppressed /. float_of_int (max 1 wk.install_requests));
        m "congestion.ecn_marks" "count" (float_of_int r.ecn_marks);
        m "congestion.backpressured" "count" (float_of_int r.backpressured);
        m "congestion.queue_drops" "count" (float_of_int r.queue_drops);
        m "engine.events_per_flow" "count" (float_of_int events /. flows_f);
        m "engine.ns_per_event" "ns" ns_per_event;
        m "engine.words_per_event" "words" words_per_event;
        m "server.reject_ratio" "ratio"
          (float_of_int rejected /. float_of_int (max 1 (served + rejected)));
        m "deployment.build_ms" "ms" (1e3 *. median (List.map snd setups));
        m "partitioner.compute_ms" "ms" (partitioner_ms w);
        m "ptrace.ns_per_postcard" "ns" (median (ptrace_costs runs));
        m "flowsim.unattributed_share" "ratio" (1. -. (float_of_int busy_ns *. 1e-9 /. walk_wall));
        m "flowsim.timed_runs" "count" (float_of_int (List.length plain));
        m "flowsim.run_wall_median_ms" "ms" (1e3 *. wall);
        m "host.kernel_median_ms" "ms" (kernel *. 1e-6);
      ]
  in
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then fail [ x.name ^ " is not a finite number" ])
    (if trace then per_layer @ simulated else end_to_end);
  {
    correct = !failures = [];
    failures = !failures;
    attempted = offered;
    failed;
    end_to_end;
    simulated;
    per_layer;
    walls = List.map (fun x -> x.wall) plain;
    two_domain_wall = Option.map (fun t -> t.wall_s) two_domain;
    spans = wk.spans;
  }

let find report name =
  match
    List.find_opt (fun x -> x.name = name) (report.end_to_end @ report.per_layer @ report.simulated)
  with
  | Some x -> x.value
  | None -> invalid_arg ("no metric " ^ name)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let to_json report ~trace =
  let metrics = if trace then report.per_layer @ report.simulated else report.end_to_end in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    report.correct report.attempted report.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
              x.unit_)
          metrics))
