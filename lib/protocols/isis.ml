(* IS-IS link-state routing: shortest paths with ECMP (interface and
   invariants in isis.mli).  Devices are int indices in name order; the
   kernel runs Dijkstra over per-node int adjacency arrays with a binary
   heap of packed (dist, node) keys and keeps ECMP first hops as sorted
   index lists, materialising names only at lookup.  [View] derives
   distance-only failure views from one graph and its no-failure rows. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Smap = Map.Make (String)

type t = {
  order : string array; (* device index <-> name; name-sorted *)
  index : int Smap.t;
  dist : int array array; (* dist.(src).(dst); max_int = unreachable *)
  first_hops : int list array array;
      (* ECMP first hops src -> dst as ascending device indices *)
}

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

(* The weighted graph Dijkstra runs on.  [adj_dst.(u)]/[adj_cost.(u)] are
   u's out-edges in adjacency order (reverse [Topology.edges] order), the
   order relaxations visit them in.  A heap key is [(dist lsl shift) lor
   node]; [shift] bits hold any node index. *)
type graph = {
  names : string array;
  index : int Smap.t;
  adj_dst : int array array;
  adj_cost : int array array;
  shift : int;
}

let graph_of ~(te_aware : bool) (topo : Topology.t) (configs : Types.t Smap.t)
    : graph =
  (* [device_names] comes from a String map: index order is name order *)
  let names = Topology.device_names topo |> Array.of_list in
  let n = Array.length names in
  let index =
    Array.to_list names
    |> List.mapi (fun i name -> (name, i))
    |> List.to_seq |> Smap.of_seq
  in
  let rec bits k = if 1 lsl k >= n then k else bits (k + 1) in
  let shift = bits 0 in
  (* Every distance Dijkstra labels is a simple path's length (a shorter
     label through a cycle would need a negative cycle), so |dist| stays
     within the sum of |cost| and a packed key cannot overflow. *)
  let limit = max_int asr (shift + 1) in
  let total = ref 0 in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Topology.edge) ->
      match (Smap.find_opt e.Topology.src index, Smap.find_opt e.Topology.dst index) with
      | Some s, Some d ->
          let c = edge_cost ~configs ~te:te_aware e in
          let a = abs c in
          if a < 0 || a > limit - !total then
            invalid_arg "Isis: link costs too large for shortest paths";
          total := !total + a;
          adj.(s) <- (d, c) :: adj.(s)
      | _ -> ())
    (Topology.edges topo);
  {
    names;
    index;
    adj_dst = Array.map (fun l -> Array.of_list (List.map fst l)) adj;
    adj_cost = Array.map (fun l -> Array.of_list (List.map snd l)) adj;
    shift;
  }

(* Binary min-heap of packed (dist, node) keys.  Keys are distinct (a
   node is pushed only on a strict improvement of its label), so pops
   come out in the lexicographic (dist, node) order. *)
type heap = { mutable keys : int array; mutable size : int }

let heap_push h key =
  if h.size = Array.length h.keys then begin
    let a = Array.make (2 * h.size + 1) 0 in
    Array.blit h.keys 0 a 0 h.size;
    h.keys <- a
  end;
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

(* Single-source Dijkstra with ECMP first-hop tracking, filling the row
   [d] / [fh] of [src]. *)
let dijkstra_from g heap (d : int array) (fh : int list array) src =
  let shift = g.shift in
  let mask = (1 lsl shift) - 1 in
  d.(src) <- 0;
  heap.size <- 0;
  heap_push heap src;
  while heap.size > 0 do
    let key = heap_pop heap in
    let du = key asr shift and u = key land mask in
    if du <= d.(u) then begin
      let dsts = g.adj_dst.(u) and costs = g.adj_cost.(u) in
      for j = 0 to Array.length dsts - 1 do
        let v = dsts.(j) in
        let alt = du + costs.(j) in
        if alt < d.(v) then begin
          d.(v) <- alt;
          (* first hop: if u is the source, the first hop is v itself;
             otherwise inherit u's first hops *)
          fh.(v) <- (if u = src then [ v ] else fh.(u));
          heap_push heap ((alt lsl shift) lor v)
        end
        else if alt = d.(v) && alt < max_int then
          fh.(v) <- merge (if u = src then [ v ] else fh.(u)) fh.(v)
      done
    end
  done

let compute ?(te_aware = true) (topo : Topology.t) (configs : Types.t Smap.t) :
    t =
  let g = graph_of ~te_aware topo configs in
  let n = Array.length g.names in
  let dist = Array.init n (fun _ -> Array.make n max_int) in
  let first_hops = Array.init n (fun _ -> Array.make n []) in
  let heap = { keys = Array.make 64 0; size = 0 } in
  for s = 0 to n - 1 do
    dijkstra_from g heap dist.(s) first_hops.(s) s
  done;
  { order = g.names; index = g.index; dist; first_hops }

let cost (t : t) ~src ~dst : int option =
  match (Smap.find_opt src t.index, Smap.find_opt dst t.index) with
  | Some s, Some d ->
      let c = t.dist.(s).(d) in
      if c = max_int then None else Some c
  | _ -> None

let first_hops (t : t) ~src ~dst : string list =
  match (Smap.find_opt src t.index, Smap.find_opt dst t.index) with
  | Some s, Some d -> List.map (Array.get t.order) t.first_hops.(s).(d)
  | _ -> []

let reachable (t : t) ~src ~dst = Option.is_some (cost t ~src ~dst)

let devices (t : t) = Array.to_list t.order

let some_path (t : t) ~src ~dst : string list option =
  match (Smap.find_opt src t.index, Smap.find_opt dst t.index) with
  | Some s, Some d when t.dist.(s).(d) <> max_int ->
      let rec walk cur acc =
        if cur = d then Some (List.rev_map (Array.get t.order) (d :: acc))
        else
          match t.first_hops.(cur).(d) with
          | [] -> None
          | hop :: _ -> walk hop (cur :: acc)
      in
      walk s []
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Failure views                                                       *)
(* ------------------------------------------------------------------ *)

module View = struct
  type base = {
    g : graph;
    positive : bool; (* every link cost > 0: the reuse rule applies *)
    srcs : int array; (* source slot -> device index *)
    slot : int array; (* device index -> source slot; -1 = not a source *)
    is_read : bool array;
    rows : int array array; (* per slot: no-failure distances *)
    on_path : bool array array;
        (* per slot: the devices on a no-failure shortest path from the
           source to a reachable read device, reads included *)
  }

  type t = {
    b : base;
    dead : bool array;
    cut : (int * int) list;
    vrows : int array array; (* per slot; a base row when reused *)
    reused : int;
    recomputed : int;
  }

  let cut_pair cut u v =
    List.exists (fun (a, b) -> (a = u && b = v) || (a = v && b = u)) cut

  (* Distance-only Dijkstra from the live [src] over [g] without the
     devices of [dead] and every parallel edge of the links of [cut]. *)
  let dijkstra_masked g heap (d : int array) ~dead ~cut src =
    let shift = g.shift in
    let mask = (1 lsl shift) - 1 in
    d.(src) <- 0;
    heap.size <- 0;
    heap_push heap src;
    while heap.size > 0 do
      let key = heap_pop heap in
      let du = key asr shift and u = key land mask in
      if du <= d.(u) then begin
        let dsts = g.adj_dst.(u) and costs = g.adj_cost.(u) in
        for j = 0 to Array.length dsts - 1 do
          let v = dsts.(j) in
          let alt = du + costs.(j) in
          if alt < d.(v) && (not dead.(v)) && not (cut_pair cut u v) then begin
            d.(v) <- alt;
            heap_push heap ((alt lsl shift) lor v)
          end
        done
      end
    done

  (* The devices on a shortest path of [d] to a reachable read: walk
     tight edges backwards from the reads over the in-edges [rin]. *)
  let on_path_of ~rin ~is_read (d : int array) =
    let n = Array.length d in
    let mark = Array.make n false in
    let rec walk = function
      | [] -> ()
      | v :: rest ->
          let tight_in =
            List.filter_map
              (fun (u, c) ->
                if (not mark.(u)) && d.(u) <> max_int && d.(u) + c = d.(v)
                then begin
                  mark.(u) <- true;
                  Some u
                end
                else None)
              rin.(v)
          in
          walk (tight_in @ rest)
    in
    let reads =
      List.filter (fun r -> is_read.(r) && d.(r) <> max_int) (List.init n Fun.id)
    in
    List.iter (fun r -> mark.(r) <- true) reads;
    walk reads;
    mark

  let base ?(te_aware = true) (topo : Topology.t) (configs : Types.t Smap.t)
      ~(sources : string list) ~(reads : string list) : base =
    let g = graph_of ~te_aware topo configs in
    let n = Array.length g.names in
    let indices names =
      List.filter_map (fun d -> Smap.find_opt d g.index) names
      |> List.sort_uniq Int.compare
    in
    let srcs = Array.of_list (indices sources) in
    let slot = Array.make n (-1) in
    Array.iteri (fun i s -> slot.(s) <- i) srcs;
    let is_read = Array.make n false in
    List.iter (fun r -> is_read.(r) <- true) (indices reads);
    let rin = Array.make n [] in
    Array.iteri
      (fun u dsts ->
        Array.iteri
          (fun j v -> rin.(v) <- (u, g.adj_cost.(u).(j)) :: rin.(v))
          dsts)
      g.adj_dst;
    let heap = { keys = Array.make 64 0; size = 0 } in
    let no_dead = Array.make n false in
    let rows =
      Array.map
        (fun s ->
          let d = Array.make n max_int in
          dijkstra_masked g heap d ~dead:no_dead ~cut:[] s;
          d)
        srcs
    in
    {
      g;
      positive = Array.for_all (Array.for_all (fun c -> c > 0)) g.adj_cost;
      srcs;
      slot;
      is_read;
      rows;
      on_path = Array.map (on_path_of ~rin ~is_read) rows;
    }

  let index (b : base) name = Smap.find_opt name b.g.index

  (* Whether failing [devices]/[cut] can change a distance from the
     source of slot [s] to a read device: some failed edge (every edge
     into a failed device, every parallel edge of a cut link) is tight
     on a no-failure shortest path toward a read.  When none is, one
     such path survives to every read, and failures never shorten a
     path. *)
  let affected (b : base) s ~devices ~cut =
    let d = b.rows.(s) and on = b.on_path.(s) in
    let tight x y =
      let dsts = b.g.adj_dst.(x) and costs = b.g.adj_cost.(x) in
      let rec any j =
        j < Array.length dsts
        && ((dsts.(j) = y && d.(x) + costs.(j) = d.(y)) || any (j + 1))
      in
      on.(y) && d.(x) <> max_int && any 0
    in
    List.exists (fun x -> on.(x)) devices
    || List.exists (fun (x, y) -> tight x y || tight y x) cut

  let fail (b : base) ~(links : (int * int) list) ~(devices : int list) : t =
    let n = Array.length b.g.names in
    let dead = Array.make n false in
    List.iter (fun x -> dead.(x) <- true) devices;
    let heap = { keys = Array.make 64 0; size = 0 } in
    let reused = ref 0 and recomputed = ref 0 in
    let row s base_row =
      let src = b.srcs.(s) in
      if dead.(src) then base_row
      else if b.positive && not (affected b s ~devices ~cut:links) then begin
        incr reused;
        base_row
      end
      else begin
        incr recomputed;
        let d = Array.make n max_int in
        dijkstra_masked b.g heap d ~dead ~cut:links src;
        d
      end
    in
    let vrows = Array.mapi row b.rows in
    { b; dead; cut = links; vrows; reused = !reused; recomputed = !recomputed }

  let cost (v : t) ~src ~dst =
    let s = v.b.slot.(src) in
    if s < 0 || not v.b.is_read.(dst) then
      invalid_arg "Isis.View.cost: not a source or not a read device";
    (* a reused row never reaches a failed read: a reachable read is on
       its own shortest path, so its failure forces a recomputation *)
    if v.dead.(src) then max_int else v.vrows.(s).(dst)

  let reachable v ~src ~dst = cost v ~src ~dst <> max_int
  let down (v : t) d = v.dead.(d)

  let linked (v : t) a b =
    (not v.dead.(a))
    && (not v.dead.(b))
    && Array.exists (( = ) b) v.b.g.adj_dst.(a)
    && not (cut_pair v.cut a b)

  let reused v = v.reused
  let recomputed v = v.recomputed
end
