(* The per-layer walk: replay a workload's packets in arrival order
   through the public calls a DIFANE packet crosses, with a span around
   each call.  Installs happen synchronously (there is no event queue),
   so cache contents drift a little from the simulator's; the walk is
   for attributing cost to layers, and for checking that every packet
   gets the policy's action. *)

open Workloads

type t = {
  spans : Spans.t;
  packets : int;  (** packets walked *)
  mismatches : int;  (** packets whose action differs from the policy's *)
  mismatched_flows : int;  (** flows with at least one such packet *)
  install_requests : int;  (** rules offered to [Aggregate.install] *)
  merges : int;
  suppressed : int;
  mask_groups_max : int;
  occupancy_max : int;
}

(* Packets in the simulator's dispatch order: by time, ties in posting
   order (flow by flow, each flow's packets in sequence). *)
let schedule (flows : Traffic.flow array) =
  let n = Array.fold_left (fun n (f : Traffic.flow) -> n + f.packets) 0 flows in
  let times = Array.make n 0. and owner = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun i (f : Traffic.flow) ->
      for p = 0 to f.packets - 1 do
        times.(!k) <- f.start +. (float_of_int p *. f.interval);
        owner.(!k) <- i;
        incr k
      done)
    flows;
  let order = Array.init n (fun i -> i) in
  Array.stable_sort (fun a b -> Float.compare times.(a) times.(b)) order;
  (times, owner, order)

let walk w =
  let spans = Spans.create () in
  let pkt_base = ref 0 and mismatches = ref 0 and requests = ref 0 in
  let merges = ref 0 and suppressed = ref 0 in
  let groups_max = ref 0 and occ_max = ref 0 and bad_flows = ref 0 in
  let sample sw =
    let c = Switch.cache sw in
    groups_max := max !groups_max (Tcam.index_groups c);
    occ_max := max !occ_max (Tcam.occupancy c)
  in
  Array.iter
    (fun s ->
      let d = build_deployment s in
      let cfg = Deployment.config d in
      let topo = s.topology in
      let monitor = if w.monitor then Some (Monitor.create d) else None in
      let cong =
        if Congestion.enabled cfg.congestion then Some (Congestion.create cfg.congestion)
        else None
      in
      let cover_limit = Aggregate.cover_limit cfg.aggregation in
      let agg = Deployment.aggregator d in
      let churn = Option.map churner w.churn in
      let next_tick = ref (match w.churn with Some c -> c.interval | None -> infinity) in
      let flows = Array.of_list s.flows in
      let bad = Array.make (Array.length flows) false in
      let times, owner, order = schedule flows in
      Array.iteri
        (fun k i ->
          let pkt = !pkt_base + k in
          let now = times.(i) in
          let flow = flows.(owner.(i)) in
          let h = flow.header in
          (match churn with
          | Some ch ->
              while !next_tick <= now do
                let at = !next_tick in
                let o = next_origin ch in
                ignore
                  (Spans.record spans Invalidate_origins ~pkt (fun () ->
                       Deployment.invalidate_origins ~now:at d ~origins:(fun x -> x = o)));
                ignore
                  (Spans.record spans Expire_caches ~pkt (fun () ->
                       Deployment.expire_caches d ~now:at));
                next_tick := at +. ch.c.interval
              done
          | None -> ());
          (match monitor with
          | Some m ->
              Spans.record spans Observe_packet ~pkt (fun () ->
                  Monitor.observe_packet m ~now ~ingress:flow.ingress h)
          | None -> ());
          (* the data-plane legs a packet crosses, hop by hop *)
          let leg a b =
            match cong with
            | None -> ()
            | Some c -> (
                match Topology.shortest_path topo a b with
                | None -> ()
                | Some path ->
                    let rec go = function
                      | x :: (y :: _ as rest) ->
                          (match Topology.link_between topo x y with
                          | Some l ->
                              ignore
                                (Spans.record spans Transit ~pkt (fun () ->
                                     Congestion.transit c ~now ~from:x l))
                          | None -> ());
                          go rest
                      | _ -> ()
                    in
                    go path)
          in
          let egress_leg from action =
            match Action.egress action with Some e -> leg from e | None -> ()
          in
          let sw = Deployment.switch d flow.ingress in
          let got =
            match Spans.record spans Process ~pkt (fun () -> Switch.process sw ~now h) with
            | Switch.Local (action, _) ->
                egress_leg flow.ingress action;
                Some action
            | Switch.Unmatched | Switch.Misconfigured -> None
            | Switch.Tunnel nominal -> (
                match
                  Spans.record spans Resolve_authority ~pkt (fun () ->
                      Deployment.resolve_authority d ~ingress:flow.ingress h ~nominal)
                with
                | None -> None
                | Some auth -> (
                    leg flow.ingress auth;
                    match
                      Spans.record spans Serve_miss ~pkt (fun () ->
                          Switch.serve_miss ~mode:cfg.cache_mode ?cover_limit
                            (Deployment.switch d auth) ~now h)
                    with
                    | None -> None
                    | Some reply ->
                        requests := !requests + List.length reply.installs;
                        ignore
                          (Spans.record spans Install ~pkt (fun () ->
                               Aggregate.install ?idle_timeout:cfg.cache_idle_timeout
                                 ?hard_timeout:cfg.cache_hard_timeout agg sw ~now
                                 reply.installs));
                        sample sw;
                        egress_leg auth reply.action;
                        Some reply.action))
          in
          let ok =
            match (got, Classifier.action s.policy h) with
            | Some a, Some b -> Action.equal a b
            | _ -> false
          in
          if not ok then begin
            incr mismatches;
            bad.(owner.(i)) <- true
          end)
        order;
      pkt_base := !pkt_base + Array.length order;
      Array.iter (fun b -> if b then incr bad_flows) bad;
      let st = Deployment.aggregate_stats d in
      merges := !merges + st.merges;
      suppressed := !suppressed + st.suppressed)
    w.shards;
  {
    spans;
    packets = !pkt_base;
    mismatches = !mismatches;
    mismatched_flows = !bad_flows;
    install_requests = !requests;
    merges = !merges;
    suppressed = !suppressed;
    mask_groups_max = !groups_max;
    occupancy_max = !occ_max;
  }
