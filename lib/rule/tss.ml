(* Entries carry their packed value lanes (the masked key) and their
   payload pre-wrapped in [Some], so a hit returns without allocating. *)
type 'a entry = {
  prio : int;
  id : int;
  seq : int;  (* insertion order: the last tie-break *)
  key : int array;  (* value lanes; wildcard bits are 0 *)
  some : 'a option;  (* [Some payload]; [None] only in [nil] *)
}

(* "No entry": loses to every real entry, matches no header. *)
let nil = { prio = min_int; id = max_int; seq = max_int; key = [||]; some = None }

(* One group per distinct mask vector.  [slots] is a chained hash table
   on the masked key; each chain is kept in table order, so the first
   entry whose key equals the masked header is the group's winner. *)
type 'a group = {
  mask : int array;
  mutable slots : 'a entry list array;  (* power-of-two length *)
  mutable size : int;
  mutable best : int;  (* highest priority held *)
  mutable pos : int;  (* index in [t.groups] *)
}

type 'a t = {
  mutable nlanes : int;  (* lanes per key; fixed by the first rule *)
  by_mask : (int array, 'a group) Hashtbl.t;
  mutable groups : 'a group array;  (* best priority, descending *)
  mutable ngroups : int;
  (* the same entries in table order, with their (mask, key) lanes laid
     out flat for the degenerate scan *)
  mutable lin : 'a entry array;
  mutable lin_mask : int array;
  mutable lin_key : int array;
  mutable n : int;
  mutable seq : int;
  (* a queried predicate's lanes, packed in place ([pack_query]) *)
  mutable q_mask : int array;
  mutable q_key : int array;
  mutable q_vals : int64 array;  (* per-field masks, then values *)
}

let create () =
  {
    nlanes = 0;
    by_mask = Hashtbl.create 16;
    groups = [||];
    ngroups = 0;
    lin = [||];
    lin_mask = [||];
    lin_key = [||];
    n = 0;
    seq = 0;
    q_mask = [||];
    q_key = [||];
    q_vals = [||];
  }

let length t = t.n
let groups t = t.ngroups

(* When to scan instead of probing groups.  A group probe (hash the
   masked lanes, index a slot, walk a short chain: several dependent
   loads) costs as much as scanning some 10-30 packed entries, and the
   scan stops at its first match.  Measured on a 2-vCPU 2.1 GHz Xeon,
   5-tuple tables of n random-shape rules with g distinct masks, hits
   only: the scan wins from g/n = 1/16 at n = 338 (600 ns probing vs
   360 ns scanning), from 1/32 at n = 4096 (5.0 us vs 4.0 us), and at
   every larger share; on the simulator's own caches (hot-zipf, 230
   groups over 338 entries) [Switch.process] drops from 2.8 us to 0.6 us
   at p50, and on E-SCALE's (39 over 279) from 1.6 us to 0.7 us.
   Prefix tables keep the probe: the tcam-lookup kernels' 8 groups over
   64-4096 prefixes probe in 40-85 ns against 80-340 ns scanning, and
   tables of at most [min_groups] groups always probe. *)
let min_groups = 8
let entries_per_group = 32

let degenerate t = t.ngroups > min_groups && t.ngroups * entries_per_group > t.n

(* Table order: higher priority, then lower rule id, then earlier add. *)
let beats a b =
  a.prio > b.prio
  || (a.prio = b.prio && (a.id < b.id || (a.id = b.id && a.seq < b.seq)))

(* ---- packing ---- *)

let pack_pred (p : Pred.t) f =
  Header.pack_lanes (Pred.schema p) (Array.init (Pred.arity p) (fun i -> f (Pred.field p i)))

let mask_lanes p = pack_pred p Ternary.mask

(* Ternary.value reads wildcard positions as 0, so the packed values are
   already the masked key. *)
let key_lanes p = pack_pred p Ternary.value

let mix h x =
  let h = (h lxor x) * 0x1f3d5b79a3c5 in
  h lxor (h lsr 29)

let slot_of_key slots key =
  let h = ref 0 in
  for l = 0 to Array.length key - 1 do
    h := mix !h (Array.unsafe_get key l)
  done;
  !h land (Array.length slots - 1)

(* ---- groups ---- *)

let rec chain_insert e = function
  | [] -> [ e ]
  | x :: rest as l -> if beats e x then e :: l else x :: chain_insert e rest

let resize g =
  let old = g.slots in
  let slots = Array.make (2 * Array.length old) [] in
  Array.iter
    (fun chain ->
      List.iter
        (fun e ->
          let i = slot_of_key slots e.key in
          slots.(i) <- chain_insert e slots.(i))
        chain)
    old;
  g.slots <- slots

let set_group t i g =
  t.groups.(i) <- g;
  g.pos <- i

(* Restore the descending-best order after [g.best] moved. *)
let reposition t g =
  let i = ref g.pos in
  while !i > 0 && t.groups.(!i - 1).best < g.best do
    set_group t !i t.groups.(!i - 1);
    decr i
  done;
  while !i < t.ngroups - 1 && t.groups.(!i + 1).best > g.best do
    set_group t !i t.groups.(!i + 1);
    incr i
  done;
  set_group t !i g

let new_group t mask =
  let g =
    { mask; slots = Array.make 4 []; size = 0; best = min_int; pos = t.ngroups }
  in
  if t.ngroups = Array.length t.groups then begin
    let groups = Array.make (max 8 (2 * t.ngroups)) g in
    Array.blit t.groups 0 groups 0 t.ngroups;
    t.groups <- groups
  end;
  t.groups.(t.ngroups) <- g;
  t.ngroups <- t.ngroups + 1;
  Hashtbl.add t.by_mask mask g;
  g

let drop_group t g =
  Array.blit t.groups (g.pos + 1) t.groups g.pos (t.ngroups - g.pos - 1);
  t.ngroups <- t.ngroups - 1;
  for i = g.pos to t.ngroups - 1 do
    t.groups.(i).pos <- i
  done;
  Hashtbl.remove t.by_mask g.mask

let group_add t g e =
  if g.size >= 2 * Array.length g.slots then resize g;
  let i = slot_of_key g.slots e.key in
  g.slots.(i) <- chain_insert e g.slots.(i);
  g.size <- g.size + 1;
  if e.prio > g.best then begin
    g.best <- e.prio;
    reposition t g
  end

(* Called with [e] already unlinked from its chain.  Recomputing the best
   priority walks the group, no dearer than the table-order array's
   shift that every removal pays anyway. *)
let group_remove t g e =
  g.size <- g.size - 1;
  if g.size = 0 then drop_group t g
  else if e.prio = g.best then begin
    g.best <-
      Array.fold_left
        (fun acc chain -> List.fold_left (fun acc x -> max acc x.prio) acc chain)
        min_int g.slots;
    reposition t g
  end

(* ---- the table-ordered array ---- *)

(* First position whose entry [e] beats (binary search). *)
let lin_position t e =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if beats t.lin.(mid) e then lo := mid + 1 else hi := mid
  done;
  !lo

let grow_lin t =
  let cap = max 8 (2 * t.n) in
  let lin = Array.make cap nil in
  Array.blit t.lin 0 lin 0 t.n;
  t.lin <- lin;
  let lanes a =
    let b = Array.make (cap * t.nlanes) 0 in
    Array.blit a 0 b 0 (t.n * t.nlanes);
    b
  in
  t.lin_mask <- lanes t.lin_mask;
  t.lin_key <- lanes t.lin_key

let lin_insert t e mask =
  if t.n = Array.length t.lin then grow_lin t;
  let i = lin_position t e and nl = t.nlanes in
  Array.blit t.lin i t.lin (i + 1) (t.n - i);
  Array.blit t.lin_mask (i * nl) t.lin_mask ((i + 1) * nl) ((t.n - i) * nl);
  Array.blit t.lin_key (i * nl) t.lin_key ((i + 1) * nl) ((t.n - i) * nl);
  t.lin.(i) <- e;
  Array.blit mask 0 t.lin_mask (i * nl) nl;
  Array.blit e.key 0 t.lin_key (i * nl) nl;
  t.n <- t.n + 1

let lin_remove t e =
  let i = lin_position t e and nl = t.nlanes in
  (* (prio, id, seq) is unique, so [e] sits exactly at its position *)
  let last = t.n - 1 in
  Array.blit t.lin (i + 1) t.lin i (last - i);
  Array.blit t.lin_mask ((i + 1) * nl) t.lin_mask (i * nl) ((last - i) * nl);
  Array.blit t.lin_key ((i + 1) * nl) t.lin_key (i * nl) ((last - i) * nl);
  (* drop the stale reference so the payload can be collected *)
  t.lin.(last) <- nil;
  t.n <- last;
  if t.n = 0 then begin
    t.lin <- [||];
    t.nlanes <- 0
  end

(* ---- mutation ---- *)

let add t (rule : Rule.t) value =
  let nl = Header.lane_count (Pred.schema rule.pred) in
  if t.n = 0 then t.nlanes <- nl
  else if nl <> t.nlanes then invalid_arg "Tss.add: rule schema packs into a different lane count";
  let mask = mask_lanes rule.pred in
  let e =
    { prio = rule.priority; id = rule.id; seq = t.seq; key = key_lanes rule.pred;
      some = Some value }
  in
  t.seq <- t.seq + 1;
  let g = match Hashtbl.find_opt t.by_mask mask with Some g -> g | None -> new_group t mask in
  group_add t g e;
  lin_insert t e mask

let remove t (rule : Rule.t) value =
  let mask = mask_lanes rule.pred in
  match Hashtbl.find_opt t.by_mask mask with
  | None -> false
  | Some g -> (
      let key = key_lanes rule.pred in
      let i = slot_of_key g.slots key in
      let hit e =
        (match e.some with Some v -> v == value | None -> false)
        && e.prio = rule.priority && e.id = rule.id && e.key = key
      in
      match List.find_opt hit g.slots.(i) with
      | None -> false
      | Some e ->
          g.slots.(i) <- List.filter (fun x -> x != e) g.slots.(i);
          group_remove t g e;
          lin_remove t e;
          true)

let clear t =
  Hashtbl.reset t.by_mask;
  t.groups <- [||];
  t.ngroups <- 0;
  t.lin <- [||];
  t.lin_mask <- [||];
  t.lin_key <- [||];
  t.n <- 0;
  t.nlanes <- 0

let of_classifier c =
  let t = create () in
  List.iter (fun r -> add t r r) (Classifier.rules c);
  t

(* A table-order walk over the flat array: nothing is allocated beyond
   what [f] does.  The table must not change during the walk. *)
let fold f t init =
  let rec go i acc = if i < 0 then acc else go (i - 1) (f (Option.get t.lin.(i).some) acc) in
  go (t.n - 1) init

let to_list t = fold List.cons t []

(* ---- lookup ---- *)

(* Does the header's lane vector, masked by [mask], equal [key]? *)
let key_matches hl mask key nl =
  let l = ref 0 in
  while !l < nl && Array.unsafe_get hl !l land Array.unsafe_get mask !l = Array.unsafe_get key !l do
    incr l
  done;
  !l = nl

(* First entry of a table-ordered chain whose key is the masked header;
   [nil] when the chain holds none. *)
let rec chain_find hl mask nl = function
  | [] -> nil
  | e :: rest -> if key_matches hl mask e.key nl then e else chain_find hl mask nl rest

(* Probe groups in descending best priority; once the winner outranks
   everything a group could hold, no later group can beat it either. *)
let find_tss t hl nl =
  let best = ref nil and i = ref 0 in
  while !i < t.ngroups do
    let g = Array.unsafe_get t.groups !i in
    if !best.prio > g.best then i := t.ngroups
    else begin
      let mask = g.mask and slots = g.slots in
      let h = ref 0 in
      for l = 0 to nl - 1 do
        h := mix !h (Array.unsafe_get hl l land Array.unsafe_get mask l)
      done;
      let chain = Array.unsafe_get slots (!h land (Array.length slots - 1)) in
      let e = chain_find hl mask nl chain in
      if e != nil && beats e !best then best := e;
      incr i
    end
  done;
  !best.some

(* The degenerate path: entries in table order, flat (mask, key) lanes,
   first match wins. *)
let find_linear t hl nl =
  let masks = t.lin_mask and keys = t.lin_key in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < t.n do
    let base = !i * nl in
    let l = ref 0 in
    while
      !l < nl
      && Array.unsafe_get hl !l land Array.unsafe_get masks (base + !l)
         = Array.unsafe_get keys (base + !l)
    do
      incr l
    done;
    if !l = nl then found := !i else incr i
  done;
  if !found < 0 then None else (Array.unsafe_get t.lin !found).some

let find t h =
  if t.n = 0 then None
  else begin
    let hl = Header.lanes h and nl = t.nlanes in
    if Array.length hl < nl then invalid_arg "Tss.find: header schema narrower than the rules";
    if degenerate t then find_linear t hl nl else find_tss t hl nl
  end

(* ---- predicate-shaped queries ----

   A predicate's packed lanes are its exact bit layout, so the questions
   aggregation asks about a cache have lane answers: an identical
   predicate is the same key in the same mask group; a buddy (equal
   everywhere but one bit of one specified position, [Pred.buddy_union])
   sits in the same mask group with a key one bit away; a subsuming
   predicate's mask is a subset of this one's, and its key is this key
   under its mask.  Each walk touches only the candidates' chains. *)

let payload e = Option.get e.some

(* Pack [p] into the query buffers; [false] when its schema packs into a
   different lane count than the entries' (then nothing can relate). *)
let pack_query t p =
  let schema = Pred.schema p in
  t.n > 0 && Header.lane_count schema = t.nlanes
  && begin
       if Array.length t.q_mask <> t.nlanes then begin
         t.q_mask <- Array.make t.nlanes 0;
         t.q_key <- Array.make t.nlanes 0
       end;
       let arity = Pred.arity p in
       if Array.length t.q_vals <> arity then t.q_vals <- Array.make arity 0L;
       let vals = t.q_vals in
       for i = 0 to arity - 1 do vals.(i) <- Ternary.mask (Pred.field p i) done;
       Header.pack_into schema t.q_mask vals;
       for i = 0 to arity - 1 do vals.(i) <- Ternary.value (Pred.field p i) done;
       Header.pack_into schema t.q_key vals;
       true
     end

(* [f] on each entry of a chain whose key is [key]; a top-level loop, so
   a probe allocates no closure *)
let rec iter_key key f = function
  | [] -> ()
  | e :: rest ->
      if e.key = key then f (payload e);
      iter_key key f rest

let iter_with_pred t p f =
  if pack_query t p then
    match Hashtbl.find t.by_mask t.q_mask with
    | exception Not_found -> ()
    | g ->
        let key = t.q_key in
        iter_key key f g.slots.(slot_of_key g.slots key)

let iter_buddies t p f =
  if pack_query t p then
    let mask = t.q_mask in
    match Hashtbl.find t.by_mask mask with
    | exception Not_found -> ()
    | g ->
        let key = t.q_key in
        (* probe each one-bit neighbour of the key, flipped in place *)
        for l = 0 to Array.length mask - 1 do
          let m = ref mask.(l) in
          while !m <> 0 do
            let b = !m land - !m in
            m := !m lxor b;
            key.(l) <- key.(l) lxor b;
            iter_key key f g.slots.(slot_of_key g.slots key);
            key.(l) <- key.(l) lxor b
          done
        done

let iter_subsuming ?(min_priority = min_int) t p f =
  if pack_query t p then begin
    let mask = t.q_mask and key = t.q_key in
    let nl = Array.length mask in
    let subset gm =
      let ok = ref (Array.length gm = nl) and l = ref 0 in
      while !ok && !l < nl do
        ok := Array.unsafe_get gm !l land lnot (Array.unsafe_get mask !l) = 0;
        incr l
      done;
      !ok
    in
    (* groups in descending best priority: stop below the threshold *)
    let i = ref 0 in
    while !i < t.ngroups do
      let g = t.groups.(!i) in
      if g.best < min_priority then i := t.ngroups
      else begin
        if subset g.mask then begin
          let h = ref 0 in
          for l = 0 to nl - 1 do
            h := mix !h (Array.unsafe_get key l land Array.unsafe_get g.mask l)
          done;
          List.iter
            (fun e -> if e.prio >= min_priority && key_matches key g.mask e.key nl then f (payload e))
            g.slots.(!h land (Array.length g.slots - 1))
        end;
        incr i
      end
    done
  end

(* ---- single patterns ---- *)

type pattern = { pmask : int array; pkey : int array }

let pattern p = { pmask = mask_lanes p; pkey = key_lanes p }

let covers p h =
  let hl = Header.lanes h and nl = Array.length p.pmask in
  Array.length hl >= nl && key_matches hl p.pmask p.pkey nl
