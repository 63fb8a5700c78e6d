(* Registry mirrors: bumped on the same line as the per-bank fields, so
   the process-wide totals cannot drift from the sum of per-bank stats. *)
let m_hits = Telemetry.counter "tcam_hits"
let m_misses = Telemetry.counter "tcam_misses"
let m_inserts = Telemetry.counter "tcam_inserts"
let m_evictions = Telemetry.counter "tcam_evictions"
let m_expirations = Telemetry.counter "tcam_expirations"

type entry = {
  rule : Rule.t;
  installed_at : float;
  mutable last_hit : float;
  mutable packets : int;
  mutable bytes : int;
  idle_timeout : float option;
  hard_timeout : float option;
}

(* Internal wrapper: the public entry plus the intrusive LRU links and
   the liveness bit the lazy expiry heap checks.  [hit] is the entry's
   rule pre-wrapped in [Some], so a lookup hit returns without
   allocating.  A node leaves every structure through [detach]; heap
   records outlive it and are skipped. *)
type node = {
  e : entry;
  hit : Rule.t option;
  mutable prev : node;  (* towards the LRU end *)
  mutable next : node;  (* towards the MRU end *)
  mutable live : bool;
}

(* Array-backed binary min-heap of (deadline, node).  Deadlines are the
   value at push time; idle timeouts move an entry's true deadline
   forward on every hit, so a popped record is re-validated against the
   entry and re-pushed when stale (lazy deletion — hits never touch the
   heap, which keeps the per-packet path O(1)). *)
module Heap = struct
  type t = { mutable arr : (float * node) array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let clear h = h.arr <- [||]; h.len <- 0

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if fst h.arr.(i) < fst h.arr.(p) then begin
        swap h i p;
        sift_up h p
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < h.len && fst h.arr.(l) < fst h.arr.(i) then l else i in
    let m = if r < h.len && fst h.arr.(r) < fst h.arr.(m) then r else m in
    if m <> i then begin
      swap h i m;
      sift_down h m
    end

  let push h d n =
    if h.len = Array.length h.arr then begin
      let cap = max 8 (2 * h.len) in
      let arr = Array.make cap (d, n) in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    h.arr.(h.len) <- (d, n);
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  let peek_deadline h = if h.len = 0 then None else Some (fst h.arr.(0))

  let pop h =
    let top = h.arr.(0) in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    sift_down h 0;
    top
end

type stats = {
  hits : int64;
  misses : int64;
  inserts : int64;
  evictions : int64;
  expirations : int64;
}

type t = {
  cap : int;
  use_index : bool;
  by_id : (int, node) Hashtbl.t;
  index : node Tss.t;  (* every live node, keyed by its rule *)
  lru : node;
      (* sentinel of the circular LRU list: [lru.next] is the least
         recently touched node, [lru.prev] the most recent *)
  heap : Heap.t;
  mutable size : int;
  mutable hits : int;
  mutable misses : int;
  mutable inserts : int;
  mutable evictions : int;
  mutable expirations : int;
}

(* The LRU sentinel's entry: never matched, counted or expired. *)
let no_entry =
  {
    rule = Rule.make ~id:(-1) ~priority:min_int (Pred.any Schema.tiny2) Action.Drop;
    installed_at = 0.;
    last_hit = 0.;
    packets = 0;
    bytes = 0;
    idle_timeout = None;
    hard_timeout = None;
  }

let sentinel () =
  let rec s = { e = no_entry; hit = None; prev = s; next = s; live = false } in
  s

let make_tcam ~index ~capacity =
  if capacity < 0 then invalid_arg "Tcam.create: negative capacity";
  {
    cap = capacity;
    use_index = index;
    by_id = Hashtbl.create 64;
    index = Tss.create ();
    lru = sentinel ();
    heap = Heap.create ();
    size = 0;
    hits = 0;
    misses = 0;
    inserts = 0;
    evictions = 0;
    expirations = 0;
  }

let create ~capacity = make_tcam ~index:true ~capacity
let create_linear ~capacity = make_tcam ~index:false ~capacity

let capacity t = t.cap
let occupancy t = t.size
let is_full t = t.size >= t.cap
let find t id = Option.map (fun n -> n.e) (Hashtbl.find_opt t.by_id id)
let mem t id = Hashtbl.mem t.by_id id

let fold_nodes t f acc =
  let rec go acc n = if n == t.lru then acc else go (f acc n) n.next in
  go acc t.lru.next

(* The index keeps its payloads in table order already. *)
let entries t = List.map (fun n -> n.e) (Tss.to_list t.index)

(* ---- LRU list ---- *)

let lru_unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let lru_append t n =
  let last = t.lru.prev in
  n.prev <- last;
  n.next <- t.lru;
  last.next <- n;
  t.lru.prev <- n

let lru_touch t n =
  if n.next != t.lru then begin
    lru_unlink n;
    lru_append t n
  end

(* ---- tuple-space index ---- *)

let index_groups t = Tss.groups t.index
let index_degenerate t = (not t.use_index) || Tss.degenerate t.index

(* ---- expiry deadlines ---- *)

let deadline_of e =
  match (e.idle_timeout, e.hard_timeout) with
  | None, None -> None
  | Some i, None -> Some (e.last_hit +. i)
  | None, Some h -> Some (e.installed_at +. h)
  | Some i, Some h -> Some (Float.min (e.last_hit +. i) (e.installed_at +. h))

let expired e ~now =
  (match e.idle_timeout with Some d -> now -. e.last_hit >= d | None -> false)
  || match e.hard_timeout with Some d -> now -. e.installed_at >= d | None -> false

(* ---- attach / detach ---- *)

let attach t n =
  Hashtbl.replace t.by_id n.e.rule.Rule.id n;
  lru_append t n;
  Tss.add t.index n.e.rule n;
  t.size <- t.size + 1;
  match deadline_of n.e with Some d -> Heap.push t.heap d n | None -> ()

let detach t n =
  n.live <- false;
  Hashtbl.remove t.by_id n.e.rule.Rule.id;
  lru_unlink n;
  (* a heap record may still hold [n]: don't let it pin its neighbours *)
  n.prev <- n;
  n.next <- n;
  ignore (Tss.remove t.index n.e.rule n);
  t.size <- t.size - 1

(* ---- mutation ---- *)

let make_entry ?idle_timeout ?hard_timeout ~now rule =
  {
    rule;
    installed_at = now;
    last_hit = now;
    packets = 0;
    bytes = 0;
    idle_timeout;
    hard_timeout;
  }

let make_node e =
  let rec n = { e; hit = Some e.rule; prev = n; next = n; live = true } in
  n

let insert ?idle_timeout ?hard_timeout t ~now rule =
  let displaced =
    match Hashtbl.find_opt t.by_id rule.Rule.id with
    | Some old ->
        detach t old;
        Some old.e
    | None -> None
  in
  if displaced = None && is_full t then `Full
  else begin
    attach t (make_node (make_entry ?idle_timeout ?hard_timeout ~now rule));
    t.inserts <- t.inserts + 1;
    Telemetry.incr m_inserts;
    match displaced with Some e -> `Replaced e | None -> `Ok
  end

let evict_lru t =
  let n = t.lru.next in
  if n == t.lru then None
  else begin
    detach t n;
    t.evictions <- t.evictions + 1;
    Telemetry.incr m_evictions;
    Some n.e
  end

type displaced = { evicted : entry list; replaced : entry option; bounced : bool }

let insert_or_evict_entries ?idle_timeout ?hard_timeout t ~now rule =
  if t.cap = 0 then { evicted = []; replaced = None; bounced = true }
  else begin
    let evicted = ref [] in
    while (not (mem t rule.Rule.id)) && is_full t do
      match evict_lru t with
      | Some e -> evicted := e :: !evicted
      | None -> ()
    done;
    let replaced =
      match insert ?idle_timeout ?hard_timeout t ~now rule with
      | `Replaced e -> Some e
      | `Ok | `Full -> None
    in
    { evicted = List.rev !evicted; replaced; bounced = false }
  end

let insert_or_evict ?idle_timeout ?hard_timeout t ~now rule =
  let d = insert_or_evict_entries ?idle_timeout ?hard_timeout t ~now rule in
  let evicted = List.map (fun e -> e.rule) d.evicted in
  if d.bounced then evicted @ [ rule ] else evicted

let remove t id =
  match Hashtbl.find_opt t.by_id id with
  | Some n ->
      detach t n;
      true
  | None -> false

let remove_where t f =
  let victims = fold_nodes t (fun acc n -> if f n.e.rule then n :: acc else acc) [] in
  List.iter (detach t) victims;
  List.length victims

let clear t =
  fold_nodes t (fun () n -> n.live <- false) ();
  Hashtbl.reset t.by_id;
  Tss.clear t.index;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  Heap.clear t.heap;
  t.size <- 0

let expire_entries t ~now =
  let gone = ref [] in
  let running = ref true in
  while !running do
    match Heap.peek_deadline t.heap with
    | Some d when d <= now -> (
        let _, n = Heap.pop t.heap in
        if n.live then
          if expired n.e ~now then begin
            detach t n;
            gone := n.e :: !gone
          end
          else
            (* a hit moved the idle deadline forward since the push:
               re-key the record at the entry's current deadline *)
            match deadline_of n.e with
            | Some d' -> Heap.push t.heap d' n
            | None -> ())
    | _ -> running := false
  done;
  let gone = List.sort (fun a b -> Rule.compare_priority a.rule b.rule) !gone in
  let k = List.length gone in
  t.expirations <- t.expirations + k;
  Telemetry.add m_expirations k;
  gone

let expire t ~now = List.map (fun e -> e.rule) (expire_entries t ~now)

(* ---- lookup ---- *)

(* The reference semantics ([create_linear]): every entry's predicate
   tested field by field, best by table order. *)
let best_match_linear t h =
  fold_nodes t
    (fun best n ->
      if Rule.matches n.e.rule h then
        match best with
        | Some (b : node) when not (Rule.beats n.e.rule b.e.rule) -> best
        | _ -> Some n
      else best)
    None

let lookup t ~now ?(bytes = 64) h =
  match if t.use_index then Tss.find t.index h else best_match_linear t h with
  | Some n ->
      let e = n.e in
      e.last_hit <- now;
      e.packets <- e.packets + 1;
      e.bytes <- e.bytes + bytes;
      lru_touch t n;
      t.hits <- t.hits + 1;
      Telemetry.incr m_hits;
      n.hit
  | None ->
      t.misses <- t.misses + 1;
      Telemetry.incr m_misses;
      None

let peek t h =
  match if t.use_index then Tss.find t.index h else best_match_linear t h with
  | Some n -> n.hit
  | None -> None

(* Liveness refresh without a hit: push the idle deadline forward and
   move the entry to MRU, but leave the hit/packet counters alone.  The
   expiry heap needs no update — deadlines are revalidated from
   [last_hit] lazily at pop time.  Used to keep a cover set's unhit
   high-rank members alive (and LRU-adjacent) while any member of the
   group is absorbing traffic. *)
let touch t ~now id =
  match Hashtbl.find t.by_id id with
  | n ->
      n.e.last_hit <- now;
      lru_touch t n;
      true
  | exception Not_found -> false

(* ---- statistics ---- *)

let stats t =
  {
    hits = Int64.of_int t.hits;
    misses = Int64.of_int t.misses;
    inserts = Int64.of_int t.inserts;
    evictions = Int64.of_int t.evictions;
    expirations = Int64.of_int t.expirations;
  }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.inserts <- 0;
  t.evictions <- 0;
  t.expirations <- 0

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then Float.nan else float_of_int t.hits /. float_of_int total

let pp ppf t =
  Format.fprintf ppf "@[<v>TCAM %d/%d@,%a@]" (occupancy t) t.cap
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf e ->
         Format.fprintf ppf "%a (pkts=%d)" Rule.pp e.rule e.packets))
    (entries t)
