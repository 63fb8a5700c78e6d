(* In-memory span recorder for the per-layer walk.  One span per public
   call: layer, start and end (monotonic ns), the packet that caused it
   and the minor words the call allocated.  Spans are flat (the walk
   wraps only top-level calls), so a span's self time is its duration. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer =
  | Observe_packet
  | Process
  | Resolve_authority
  | Serve_miss
  | Install
  | Transit
  | Invalidate_origins
  | Expire_caches

let layers =
  [ Observe_packet; Process; Resolve_authority; Serve_miss; Install; Transit;
    Invalidate_origins; Expire_caches ]

let layer_name = function
  | Observe_packet -> "monitor.observe_packet"
  | Process -> "switch.process"
  | Resolve_authority -> "deployment.resolve_authority"
  | Serve_miss -> "switch.serve_miss"
  | Install -> "aggregate.install"
  | Transit -> "congestion.transit"
  | Invalidate_origins -> "deployment.invalidate_origins"
  | Expire_caches -> "deployment.expire_caches"

type t = {
  mutable n : int;
  mutable layer : layer array;
  mutable start : int array;
  mutable stop : int array;
  mutable pkt : int array;
  mutable words : int array;
  mutable ns_overhead : int;  (** timer cost of an empty span *)
  mutable words_overhead : int;  (** words an empty span reports *)
}

let grow a n fill = Array.append a (Array.make n fill)

let push t ~layer ~start ~stop ~pkt ~words =
  if t.n = Array.length t.layer then begin
    let extra = max 1024 t.n in
    t.layer <- grow t.layer extra Process;
    t.start <- grow t.start extra 0;
    t.stop <- grow t.stop extra 0;
    t.pkt <- grow t.pkt extra 0;
    t.words <- grow t.words extra 0
  end;
  let i = t.n in
  t.layer.(i) <- layer;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.pkt.(i) <- pkt;
  t.words.(i) <- words;
  t.n <- i + 1

(* Time and count the allocation of one call. *)
let record t layer ~pkt f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  push t ~layer ~start:t0 ~stop:t1 ~pkt
    ~words:(int_of_float (w1 -. w0));
  r

let create () =
  let t =
    { n = 0; layer = [||]; start = [||]; stop = [||]; pkt = [||]; words = [||];
      ns_overhead = 0; words_overhead = 0 }
  in
  (* Calibrate: the cheapest empty span is pure measurement cost, which
     every reported duration and word count has subtracted. *)
  for _ = 1 to 2000 do
    record t Process ~pkt:0 ignore
  done;
  let min_of a = Array.fold_left min max_int (Array.sub a 0 t.n) in
  let ns = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  t.ns_overhead <- min_of ns;
  t.words_overhead <- min_of t.words;
  t.n <- 0;
  t

let duration t i = max 0 (t.stop.(i) - t.start.(i) - t.ns_overhead)
let span_words t i = max 0 (t.words.(i) - t.words_overhead)

type summary = {
  calls : int;
  busy_ns : int;  (** sum of span durations *)
  ns_p50 : float;
  ns_p99 : float;
  words_per_call : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let summarize t layer =
  let ds = ref [] and words = ref 0 in
  for i = t.n - 1 downto 0 do
    if t.layer.(i) = layer then begin
      ds := float_of_int (duration t i) :: !ds;
      words := !words + span_words t i
    end
  done;
  let sorted = Array.of_list !ds in
  Array.sort Float.compare sorted;
  let calls = Array.length sorted in
  {
    calls;
    busy_ns = int_of_float (Array.fold_left ( +. ) 0. sorted);
    ns_p50 = percentile sorted 0.50;
    ns_p99 = percentile sorted 0.99;
    words_per_call = (if calls = 0 then 0. else float_of_int !words /. float_of_int calls);
  }

let write t path =
  let oc = open_out path in
  output_string oc "layer\tstart_ns\tend_ns\tpacket\tminor_words\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" (layer_name t.layer.(i)) t.start.(i) t.stop.(i)
      t.pkt.(i) (span_words t i)
  done;
  close_out oc
