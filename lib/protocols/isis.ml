(* IS-IS link-state routing: one index-keyed engine (interface and
   invariants in isis.mli).  Devices are int indices in name order; one
   Dijkstra runs over per-node int adjacency arrays with a binary heap of
   packed (dist, node) keys, on the graph minus a failure mask.  A failure
   view repairs an affected no-failure row rather than recomputing it.  A
   view holds distance rows only; ECMP first hops are derived from a row's
   shortest-path DAG when a forwarding caller first reads them. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Smap = Map.Make (String)

let default_cost = 10

(** Cost of the directed edge, from the source device's interface config.
    An interface without an explicit cost inherits the device-level
    default cost only on vendors that inherit options into sub-views (the
    "inheriting views" VSB of Table 5). *)
let edge_cost ~(configs : Types.t Smap.t) ~(te : bool) (e : Topology.edge) =
  match Smap.find_opt e.Topology.src configs with
  | None -> default_cost
  | Some cfg -> (
      let fallback () =
        match
          ( cfg.Types.dc_isis.Types.isis_default_cost,
            Hoyan_config.Vsb.of_vendor cfg.Types.dc_vendor )
        with
        | Some d, Some vsb when vsb.Hoyan_config.Vsb.inherit_subviews -> d
        | _ -> default_cost
      in
      match
        List.find_opt
          (fun (ii : Types.isis_iface) ->
            String.equal ii.Types.ii_name e.Topology.src_if)
          cfg.Types.dc_isis.Types.isis_ifaces
      with
      | Some ii ->
          (* With TE awareness, a te-enabled interface uses its configured
             cost; without it (the pre-2023 modelling gap) te interfaces
             fall back to the default metric. *)
          if ii.Types.ii_te && not te then fallback () else ii.Types.ii_cost
      | None -> fallback ())

(* The weighted graph Dijkstra runs on: per device its out-edges
   ([adj_dst]/[adj_cost]) and in-edges ([in_src]/[in_cost]).  A heap key
   is [(dist lsl shift) lor node]; [shift] bits hold any node index. *)
type graph = {
  names : string array;
  index : int Smap.t;
  adj_dst : int array array;
  adj_cost : int array array;
  in_src : int array array;
  in_cost : int array array;
  shift : int;
  positive : bool; (* no zero-cost edge *)
}

let graph_of ~(te_aware : bool) (topo : Topology.t) (configs : Types.t Smap.t)
    : graph =
  (* [device_names] comes from a String map: index order is name order *)
  let names = Topology.device_names topo |> Array.of_list in
  let n = Array.length names in
  let index = Smap.of_seq (Seq.init n (fun i -> (names.(i), i))) in
  let rec bits k = if 1 lsl k >= n then k else bits (k + 1) in
  let shift = bits 0 in
  (* A distance is a simple path's length, so it stays within the sum of
     the costs and a packed key cannot overflow. *)
  let limit = max_int asr (shift + 1) in
  let total = ref 0 in
  let out = Array.make n [] and inn = Array.make n [] in
  List.iter
    (fun (e : Topology.edge) ->
      match (Smap.find_opt e.Topology.src index, Smap.find_opt e.Topology.dst index) with
      | Some s, Some d ->
          let c = edge_cost ~configs ~te:te_aware e in
          if c < 0 then invalid_arg "Isis: negative link cost";
          if c > limit - !total then
            invalid_arg "Isis: link costs too large for shortest paths";
          total := !total + c;
          out.(s) <- (d, c) :: out.(s);
          inn.(d) <- (s, c) :: inn.(d)
      | _ -> ())
    (Topology.edges topo);
  let split f a = Array.map (fun l -> Array.of_list (List.map f l)) a in
  let adj_cost = split snd out in
  { names; index; adj_dst = split fst out; adj_cost; in_src = split fst inn;
    in_cost = split snd inn; shift;
    positive = Array.for_all (Array.for_all (fun c -> c > 0)) adj_cost }

(* Binary min-heap of packed (dist, node) keys.  A node is pushed only on
   a strict improvement of its label and each edge relaxes once, so keys
   are distinct, pops come out in the lexicographic (dist, node) order,
   and [nodes + edges] slots always suffice: a repair's seeds push each
   node at most once before any edge relaxes. *)
type heap = { keys : int array; mutable size : int }

let heap g =
  let edges = Array.fold_left (fun n a -> n + Array.length a) 0 g.adj_dst in
  { keys = Array.make (Array.length g.names + edges) 0; size = 0 }

let heap_push h key =
  let a = h.keys in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && a.((!i - 1) / 2) > key do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- key

let heap_pop h =
  let a = h.keys in
  let top = a.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    let key = a.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && a.(l + 1) < a.(l) then l + 1 else l in
        if a.(c) < key then begin
          a.(!i) <- a.(c);
          i := c
        end
        else sifting := false
      end
    done;
    a.(!i) <- key
  end;
  top

(* Union of two ascending duplicate-free index lists. *)
let rec merge a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      if x < y then x :: merge a' b
      else if y < x then y :: merge a b'
      else x :: merge a' b'

(* A failure mask: the failed devices, and the cut links (every
   parallel edge, both directions) with their endpoints marked, so that a
   relaxation tests the pair only at an endpoint. *)
type mask = { dead : bool array; cut : (int * int) list; cut_end : bool array }

let cut_edge m u v =
  m.cut_end.(u) && m.cut_end.(v)
  && List.exists (fun (a, b) -> (a = u && b = v) || (a = v && b = u)) m.cut

(* Settle every node the heap holds, relaxing over [g] minus the mask
   [m] into [d]; returns the number of nodes settled. *)
let settle g heap (d : int array) (m : mask) =
  let bits = (1 lsl g.shift) - 1 and dead = m.dead in
  let settled = ref 0 in
  while heap.size > 0 do
    let key = heap_pop heap in
    let du = key asr g.shift and u = key land bits in
    if du <= d.(u) then begin
      incr settled;
      let dsts = g.adj_dst.(u) and costs = g.adj_cost.(u) in
      let at_cut = m.cut_end.(u) in
      for j = 0 to Array.length dsts - 1 do
        let v = dsts.(j) in
        let alt = du + costs.(j) in
        if alt < d.(v) && (not dead.(v)) && not (at_cut && cut_edge m u v)
        then begin
          d.(v) <- alt;
          heap_push heap ((alt lsl g.shift) lor v)
        end
      done
    end
  done;
  !settled

(* Distances from the live [src] over [g] minus the mask [m] (every
   other entry of [d] at [max_int]); returns the nodes settled. *)
let dijkstra g heap (d : int array) (m : mask) src =
  d.(src) <- 0;
  heap.size <- 0;
  heap_push heap src;
  settle g heap d m

(* [seeds] and every device from which an edge [u -> v] of cost [c] with
   [keep u v c] leads to a marked device, walked backwards. *)
let ancestors g ~keep seeds =
  let mark = Array.make (Array.length g.names) false in
  let rec visit v =
    if not mark.(v) then begin
      mark.(v) <- true;
      let srcs = g.in_src.(v) and costs = g.in_cost.(v) in
      for j = 0 to Array.length srcs - 1 do
        if keep srcs.(j) v costs.(j) then visit srcs.(j)
      done
    end
  in
  List.iter visit seeds;
  mark

(* Whether [u -> v] of cost [c] lies on a shortest path of row [d]. *)
let tight (d : int array) u v c = d.(u) <> max_int && d.(u) + c = d.(v)

(* The row of [g] minus the deletions [m], repaired from the no-failure
   row [d0] on positive costs (the deletion case of Ramalingam and Reps,
   J. Algorithms 1996), and the number of nodes it re-settled.  Only a
   descendant, in [d0]'s tight DAG, of a dead node or of the head of a
   cut tight edge can lose its distance.  In ascending [d0] order (a
   tight edge strictly raises it, so every tight in-neighbour is decided
   first), a candidate keeps its distance when a live, uncut tight edge
   comes from a node that kept its own; failures never shorten a path.
   The rest are affected: each restarts from its best live edge out of
   the kept nodes, and [settle] finishes them.  [failed] lists the dead
   nodes of [m].  [state] and [buf] are scratch of one entry per node:
   [state] is all 0 (not a candidate) on entry and on return, 1 marks a
   kept candidate and 2 an affected one; [buf] holds the candidates. *)
let repair g heap ~(state : int array) ~(buf : int array) (m : mask) ~failed
    (d0 : int array) =
  let d = Array.copy d0 in
  let len = ref 0 in
  let visit v =
    if state.(v) = 0 && d0.(v) <> max_int then begin
      state.(v) <- 1;
      buf.(!len) <- v;
      incr len
    end
  in
  let cut_heads a b =
    let dsts = g.adj_dst.(a) and costs = g.adj_cost.(a) in
    for j = 0 to Array.length dsts - 1 do
      if dsts.(j) = b && tight d0 a b costs.(j) then visit b
    done
  in
  List.iter (fun (a, b) -> cut_heads a b; cut_heads b a) m.cut;
  List.iter visit failed;
  (* the seeds' descendants, breadth-first: [buf] grows past the cursor *)
  let i = ref 0 in
  while !i < !len do
    let u = buf.(!i) in
    let dsts = g.adj_dst.(u) and costs = g.adj_cost.(u) in
    for j = 0 to Array.length dsts - 1 do
      if tight d0 u dsts.(j) costs.(j) then visit dsts.(j)
    done;
    incr i
  done;
  let order =
    Array.init !len (fun i -> (d0.(buf.(i)) lsl g.shift) lor buf.(i))
  in
  Array.sort Int.compare order;
  let bits = (1 lsl g.shift) - 1 in
  (* a reachable dead node is a candidate, so it is decided affected
     before its tight out-neighbours *)
  let kept_edge v u c =
    state.(u) <> 2 && tight d0 u v c && not (cut_edge m u v)
  in
  Array.iter
    (fun key ->
      let v = key land bits in
      let srcs = g.in_src.(v) and costs = g.in_cost.(v) in
      let rec kept j =
        j < Array.length srcs
        && (kept_edge v srcs.(j) costs.(j) || kept (j + 1))
      in
      if m.dead.(v) || not (kept 0) then begin
        state.(v) <- 2;
        d.(v) <- max_int
      end)
    order;
  heap.size <- 0;
  Array.iter
    (fun key ->
      let v = key land bits in
      if state.(v) = 2 && not m.dead.(v) then begin
        let srcs = g.in_src.(v) and costs = g.in_cost.(v) in
        for j = 0 to Array.length srcs - 1 do
          let u = srcs.(j) in
          if
            state.(u) <> 2 && d.(u) <> max_int
            && d.(u) + costs.(j) < d.(v)
            && not (cut_edge m u v)
          then d.(v) <- d.(u) + costs.(j)
        done;
        if d.(v) <> max_int then heap_push heap ((d.(v) lsl g.shift) lor v)
      end)
    order;
  Array.iter (fun key -> state.(key land bits) <- 0) order;
  (d, settle g heap d m)

type t = {
  g : graph;
  srcs : int array; (* source slot -> device index *)
  slot : int array; (* device index -> source slot; -1 = not a source *)
  is_read : bool array;
  base_rows : int array array; (* per slot: no-failure distances *)
  on_path : bool array array option;
      (* per slot: the devices on a no-failure shortest path to a
         reachable read, reads included; [None] when every device is a
         read: the reachable set *)
  mask : mask;
  rows : int array array; (* per slot; a base row when reused *)
  hops : int list array option Atomic.t array;
      (* per slot: derived first hops, published on first read *)
  reused : int;
  recomputed : int;
  resettled : int;
}

let compute ?(te_aware = true) ?sources ?reads (topo : Topology.t)
    (configs : Types.t Smap.t) : t =
  let g = graph_of ~te_aware topo configs in
  let n = Array.length g.names in
  let indices = function
    | None -> List.init n Fun.id
    | Some names ->
        List.filter_map (fun d -> Smap.find_opt d g.index) names
        |> List.sort_uniq Int.compare
  in
  let is_read = Array.make n false and srcs = Array.of_list (indices sources) in
  List.iter (fun r -> is_read.(r) <- true) (indices reads);
  let slot = Array.make n (-1) in
  Array.iteri (fun i s -> slot.(s) <- i) srcs;
  let hp = heap g in
  let none = Array.make n false in
  let mask = { dead = none; cut = []; cut_end = none } in
  let row s =
    let d = Array.make n max_int in
    ignore (dijkstra g hp d mask s);
    d
  in
  let rows = Array.map row srcs in
  let on_path d =
    List.filter (fun r -> is_read.(r) && d.(r) <> max_int) (List.init n Fun.id)
    |> ancestors g ~keep:(tight d)
  in
  { g; srcs; slot; is_read; base_rows = rows;
    on_path = (if reads = None then None else Some (Array.map on_path rows));
    mask; rows; hops = Array.map (fun _ -> Atomic.make None) srcs;
    reused = 0; recomputed = 0; resettled = 0 }

let index (v : t) name = Smap.find_opt name v.g.index
let name (v : t) i = v.g.names.(i)

(* Whether the failures [failed]/[cut] can change a distance from the
   source of slot [s] to a read device: some failed edge (every edge into
   a failed device, every parallel edge of a cut link) is tight on a
   no-failure shortest path toward a read.  When none is, one such path
   survives to every read, and failures never shorten a path. *)
let affected (v : t) s ~failed ~cut =
  let d = v.base_rows.(s) in
  let on =
    match v.on_path with
    | None -> fun x -> d.(x) <> max_int
    | Some on -> Array.get on.(s)
  in
  let tight_edge x y =
    let dsts = v.g.adj_dst.(x) and costs = v.g.adj_cost.(x) in
    let rec any j =
      j < Array.length dsts
      && ((dsts.(j) = y && tight d x y costs.(j)) || any (j + 1))
    in
    on y && any 0
  in
  List.exists on failed
  || List.exists (fun (x, y) -> tight_edge x y || tight_edge y x) cut

let fail (v : t) ~(links : (int * int) list) ~(devices : int list) : t =
  let n = Array.length v.g.names in
  let dead = Array.copy v.mask.dead and cut_end = Array.copy v.mask.cut_end in
  List.iter (fun x -> dead.(x) <- true) devices;
  List.iter (fun (a, b) -> cut_end.(a) <- true; cut_end.(b) <- true) links;
  let failed = List.filter (Array.get dead) (List.init n Fun.id) in
  let cut = links @ v.mask.cut in
  let mask = { dead; cut; cut_end } in
  let hp = heap v.g and state = Array.make n 0 and buf = Array.make n 0 in
  let reused = ref 0 and recomputed = ref 0 and resettled = ref 0 in
  let row s base_row =
    if dead.(v.srcs.(s)) then base_row
    else if v.g.positive && not (affected v s ~failed ~cut) then begin
      incr reused;
      base_row
    end
    else begin
      incr recomputed;
      let d, settled =
        if v.g.positive then repair v.g hp ~state ~buf mask ~failed base_row
        else
          let d = Array.make n max_int in
          (d, dijkstra v.g hp d mask v.srcs.(s))
      in
      resettled := !resettled + settled;
      d
    end
  in
  let rows = Array.mapi row v.base_rows in
  { v with mask; rows; hops = Array.map (fun _ -> Atomic.make None) v.srcs;
    reused = !reused; recomputed = !recomputed; resettled = !resettled }

(* The slot of a source, refusing a lookup outside the sources or the
   reads. *)
let slot_of (v : t) ~src ~dst =
  let s = v.slot.(src) in
  if s < 0 || not v.is_read.(dst) then
    invalid_arg "Isis: not a source or not a read device";
  s

let cost (v : t) ~src ~dst =
  let s = slot_of v ~src ~dst in
  (* a reused row never reaches a failed read: a reachable read is on
     its own shortest path, so its failure forces a recomputation *)
  if v.mask.dead.(src) then max_int else v.rows.(s).(dst)

let reachable v ~src ~dst = cost v ~src ~dst <> max_int
let down (v : t) d = v.mask.dead.(d)

let linked (v : t) a b =
  (not v.mask.dead.(a))
  && (not v.mask.dead.(b))
  && Array.exists (( = ) b) v.g.adj_dst.(a)
  && not (cut_edge v.mask a b)

let reused v = v.reused
let recomputed v = v.recomputed
let resettled v = v.resettled

(* The shortest-path DAG of slot [s]'s row: a live tight edge [u -> w]
   of cost [c], where a zero-cost one must add a hop ([h.(u) < h.(w)],
   [h] the fewest edges on a shortest path from the source, found
   breadth-first over the live tight edges).  Positive edges strictly
   raise the distance, so only zero-cost ones could close a cycle. *)
let dag_of (v : t) s =
  let g = v.g and d = v.rows.(s) in
  let live u w c =
    tight d u w c && (not v.mask.dead.(u)) && (not v.mask.dead.(w))
    && not (cut_edge v.mask u w)
  in
  if g.positive then live
  else begin
    let h = Array.make (Array.length d) max_int in
    let rec bfs k = function
      | [] -> ()
      | level ->
          List.iter (fun u -> h.(u) <- k) level;
          List.concat_map
            (fun u ->
              List.filteri
                (fun j w -> h.(w) = max_int && live u w g.adj_cost.(u).(j))
                (Array.to_list g.adj_dst.(u)))
            level
          |> List.sort_uniq Int.compare |> bfs (k + 1)
    in
    bfs 0 [ v.srcs.(s) ];
    fun u w c -> live u w c && (c > 0 || h.(u) < h.(w))
  end

(* Every destination's ECMP first hops from slot [s]'s source: the union,
   over the DAG in-edges [u -> w], of [w] itself when [u] is the source
   and of [u]'s first hops otherwise. *)
let derive_hops (v : t) s =
  let g = v.g and src = v.srcs.(s) and dag = dag_of v s in
  let n = Array.length g.names in
  let fh = Array.make n [] and settled = Array.make n false in
  let rec hops w =
    if not settled.(w) then begin
      settled.(w) <- true;
      let srcs = g.in_src.(w) and costs = g.in_cost.(w) in
      for j = 0 to Array.length srcs - 1 do
        let u = srcs.(j) in
        if dag u w costs.(j) then
          fh.(w) <- merge (if u = src then [ w ] else hops u) fh.(w)
      done
    end;
    fh.(w)
  in
  Array.init n hops

let first_hops (v : t) ~src ~dst =
  let s = slot_of v ~src ~dst in
  if v.mask.dead.(src) then []
  else
    match Atomic.get v.hops.(s) with
    | Some fh -> fh.(dst)
    | None ->
        let fh = derive_hops v s in
        Atomic.set v.hops.(s) (Some fh);
        fh.(dst)

let some_path (v : t) ~src ~dst =
  if not (reachable v ~src ~dst) then None
  else
    let g = v.g and dag = dag_of v v.slot.(src) in
    (* forward along the name-smallest DAG successor that leads to [dst] *)
    let toward = ancestors g ~keep:dag [ dst ] in
    let rec walk cur acc =
      if cur = dst then Some (List.rev (cur :: acc))
      else
        let next = ref max_int in
        Array.iteri
          (fun j w ->
            if w < !next && toward.(w) && dag cur w g.adj_cost.(cur).(j) then
              next := w)
          g.adj_dst.(cur);
        walk !next (cur :: acc)
    in
    walk src []
