type mode = Drop_tail | Credit

type config = {
  buffer_capacity : int option;
  ecn_threshold : int option;
  packet_bits : int;
  model_bandwidth : bool;
  mode : mode;
  credit_pool : int;
  credit_low_water : int;
}

let default =
  {
    buffer_capacity = None;
    ecn_threshold = None;
    packet_bits = 12_000 (* a 1500-byte MTU frame *);
    model_bandwidth = false;
    mode = Drop_tail;
    credit_pool = 64;
    credit_low_water = 0;
  }

let enabled c =
  c.model_bandwidth || c.buffer_capacity <> None || c.ecn_threshold <> None
  || c.mode = Credit

let validate c =
  if c.packet_bits <= 0 then invalid_arg "Congestion: nonpositive packet_bits";
  (match c.buffer_capacity with
  | Some b when b < 0 -> invalid_arg "Congestion: negative buffer_capacity"
  | _ -> ());
  (match c.ecn_threshold with
  | Some e when e < 0 -> invalid_arg "Congestion: negative ecn_threshold"
  | _ -> ());
  if c.mode = Credit then begin
    if c.credit_pool < 1 then invalid_arg "Congestion: credit_pool must be >= 1";
    if c.credit_low_water < 0 then invalid_arg "Congestion: negative credit_low_water";
    if c.credit_low_water >= c.credit_pool then
      invalid_arg "Congestion: credit_low_water must be below credit_pool"
  end

(* Registry mirrors, shared by every state: how much the congestion model
   shed or marked process-wide (the per-state [stats] record carries the
   per-run split). *)
let m_transits = Telemetry.counter "congestion_port_transits"
let m_drops = Telemetry.counter "congestion_queue_drops"
let m_marks = Telemetry.counter "congestion_ecn_marks"
let g_peak = Telemetry.gauge "congestion_queue_peak"

(* One directed port: when its transmitter frees, and the serialization
   time its link implies (remembered so [depth] can convert the booking
   back into packets). *)
type port = { mutable busy_until : float; mutable ser : float }

(* Directed ports are keyed by one int, [from] in the high bits. *)
module Ports = Hashtbl.Make (Int)

let port_key ~from ~to_ = (from lsl 31) lor to_

(* Working state of the hop loop.  An all-float record is
   stored flat, so its writes box nothing: [at] is the current hop's
   arrival time, [delay] the last forwarded hop's wait plus
   serialization, and [start]/[elapsed]/[extra] the running state of a
   [leg] walk. *)
type clock = {
  mutable at : float;
  mutable delay : float;
  mutable start : float;
  mutable elapsed : float;
  mutable extra : float;
}

type t = {
  cfg : config;
  ports : port Ports.t;
  clock : clock;
  mutable marked : bool; (* the last forwarded hop was ECN-marked *)
  mutable transits : int;
  mutable drops : int;
  mutable marks : int;
  mutable peak_depth : int;
}

type stats = { transits : int; drops : int; marks : int; peak_depth : int }

let create cfg =
  validate cfg;
  {
    cfg;
    ports = Ports.create 32;
    clock = { at = 0.; delay = 0.; start = 0.; elapsed = 0.; extra = 0. };
    marked = false;
    transits = 0;
    drops = 0;
    marks = 0;
    peak_depth = 0;
  }

let config t = t.cfg

let other_end (l : Topology.link) from =
  if l.Topology.src = from then l.Topology.dst else l.Topology.src

(* Packets waiting in the buffer at an arrival seeing [wait] seconds of
   booked transmitter time: the head packet is on the wire (its residual
   counts toward [wait] but it holds no buffer slot), every further
   whole-or-partial serialization time is one queued packet — the same
   convention as [Server]: capacity counts the backlog, not the job in
   service. *)
let[@inline] queued ~wait ~ser =
  if ser <= 0. || wait <= 0. then 0
  else max 0 (int_of_float (Float.ceil ((wait /. ser) -. 1e-9)) - 1)

let depth t ~now ~from ~to_ =
  match Ports.find t.ports (port_key ~from ~to_) with
  | exception Not_found -> 0
  | p -> queued ~wait:(p.busy_until -. now) ~ser:p.ser

(* One packet offered at [t.clock.at]: [true] and [t.clock.delay] /
   [t.marked] set when forwarded, [false] when shed.  Time travels in
   the clock rather than as an argument, which would be boxed. *)
let transit_at t ~from (l : Topology.link) =
  let now = t.clock.at in
  let to_ = other_end l from in
  let ser =
    if t.cfg.model_bandwidth then Topology.serialization_delay l ~bits:t.cfg.packet_bits
    else 0.
  in
  let p =
    match Ports.find t.ports (port_key ~from ~to_) with
    | p ->
        p.ser <- ser;
        p
    | exception Not_found ->
        let p = { busy_until = 0.; ser } in
        Ports.add t.ports (port_key ~from ~to_) p;
        p
  in
  t.transits <- t.transits + 1;
  Telemetry.incr m_transits;
  (* [if] rather than [Float.max], whose boxed float arguments and result
     would allocate on every hop; times are never NaN *)
  let wait = if p.busy_until -. now > 0. then p.busy_until -. now else 0. in
  let depth = queued ~wait ~ser in
  if depth > t.peak_depth then begin
    t.peak_depth <- depth;
    Telemetry.set_max g_peak (float_of_int depth)
  end;
  match t.cfg.buffer_capacity with
  | Some cap when wait > 0. && depth >= cap ->
      t.drops <- t.drops + 1;
      Telemetry.incr m_drops;
      Ptrace.emit ~at:now Ptrace.Queue_drop ~switch:from ~rule:(-1) ~aux:depth;
      false
  | _ ->
      let marked =
        match t.cfg.ecn_threshold with
        | Some e -> wait > 0. && depth >= e
        | None -> false
      in
      if marked then begin
        t.marks <- t.marks + 1;
        Telemetry.incr m_marks;
        Ptrace.emit ~at:now Ptrace.Ecn ~switch:from ~rule:(-1) ~aux:depth
      end;
      p.busy_until <- (if p.busy_until > now then p.busy_until else now) +. ser;
      t.clock.delay <- wait +. ser;
      t.marked <- marked;
      true

let transit t ~now ~from l =
  t.clock.at <- now;
  if transit_at t ~from l then `Forward (t.clock.delay, t.marked) else `Drop

(* One hop of a [leg] walk, at the time the packet reaches it. *)
let hop t topo u v =
  match Topology.link_between topo u v with
  | None -> invalid_arg "Congestion.leg: a shortest path crosses a missing link"
  | Some l ->
      let c = t.clock in
      c.at <- c.start +. c.elapsed;
      transit_at t ~from:u l
      && begin
           c.extra <- c.extra +. c.delay;
           c.elapsed <- c.elapsed +. c.delay +. l.Topology.latency;
           true
         end

(* Book [src]'s shortest path up to [v], first hop first: recurse to the
   predecessor, then take the last hop.  The recursion is as deep as the
   path is long and builds no path; a shed packet stops the walk. *)
let rec book t topo ~src v =
  v = src
  ||
  let u = Topology.predecessor topo ~src v in
  book t topo ~src u && hop t topo u v

let leg t topo ~now a b =
  let c = t.clock in
  c.start <- now;
  c.elapsed <- 0.;
  c.extra <- 0.;
  (* no predecessor: [b] is unreachable from [a], so nothing to book *)
  a = b || Topology.predecessor topo ~src:a b < 0 || book t topo ~src:a b

let leg_delay t = t.clock.extra

let stats (t : t) =
  { transits = t.transits; drops = t.drops; marks = t.marks; peak_depth = t.peak_depth }

let reset t =
  Ports.reset t.ports;
  t.transits <- 0;
  t.drops <- 0;
  t.marks <- 0;
  t.peak_depth <- 0
