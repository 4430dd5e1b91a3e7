(** Route simulation: input routes -> all routers' RIBs.

    Wraps the BGP fixpoint engine with the equivalence-class compression
    of §3.1: one representative per EC is simulated and the resulting RIB
    rows are replicated for the other members (same rows, member's
    prefix).  Aggregate-prefix rows are never expanded (EC condition (2)
    guarantees all members trigger the same aggregates, so the aggregate
    rows are shared) — they are emitted once.

    A full run splits its prefixes into shards that converge
    independently and runs them on {!Parallel.map} domains: BGP prefixes
    interact only through aggregation, so a shard holds every prefix
    under one outermost aggregate together.  The same planner cuts the
    inputs of the distributed framework's subtasks and the centralized
    baseline's chunks into runs of whole keys ({!runs}). *)

open Hoyan_net
module Smap = Map.Make (String)
module Bgp = Hoyan_proto.Bgp
module Types = Hoyan_config.Types
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

type result = {
  rib : Rib.t; (* the global RIB: BGP + local-table routes *)
  bgp_stats : Bgp.stats;
  input_count : int;
  ec_count : int;
  compression : float;
  shards : int;
}

(** Rows produced for the representative's prefix, re-keyed to a member
    prefix of the same class. *)
let expand_rows (rows : Route.t list) (member : Prefix.t) : Route.t list =
  List.map (fun (r : Route.t) -> { r with Route.prefix = member }) rows

(** The members' rows of the given classes, from the fixpoint rows
    holding their representatives. *)
let expand (groups : Ec.group list) (rows : Route.t list) : Route.t list =
  let rows_by_prefix = Prefix.Tbl.create 1024 in
  List.iter
    (fun (r : Route.t) ->
      let existing =
        Option.value (Prefix.Tbl.find_opt rows_by_prefix r.Route.prefix)
          ~default:[]
      in
      Prefix.Tbl.replace rows_by_prefix r.Route.prefix (r :: existing))
    rows;
  List.concat_map
    (fun (g : Ec.group) ->
      let rep_rows =
        Option.value (Prefix.Tbl.find_opt rows_by_prefix g.Ec.rep_prefix)
          ~default:[]
      in
      List.concat_map
        (fun member ->
          if Prefix.equal member g.Ec.rep_prefix then []
          else expand_rows rep_rows member)
        g.Ec.member_prefixes)
    groups

(* ------------------------------------------------------------------ *)
(* The input planner: shard keys, domain shards and runs               *)
(* ------------------------------------------------------------------ *)

(** The shard key of a prefix: the outermost aggregate prefix of any
    device that subsumes it, or else the prefix itself.  Two prefixes
    that an aggregate couples (a component and its aggregate, or two
    nested aggregates) share a key, so a set of keys is closed under
    aggregate contribution: exactly the contract of [Bgp.run ~only]. *)
let shard_key (net : Bgp.network) : Prefix.t -> Prefix.t =
  let aggregates =
    Smap.fold
      (fun _ (ctx : Bgp.device_ctx) acc ->
        List.map
          (fun (ag : Types.aggregate) -> ag.Types.ag_prefix)
          ctx.Bgp.d_cfg.Types.dc_bgp.Types.bgp_aggregates
        @ acc)
      net []
    |> List.sort_uniq Prefix.compare
  in
  (* prefixes nest or are disjoint, and a covering prefix sorts before
     its subnets, so one pass keeps the outermost ones *)
  let tops =
    List.fold_left
      (fun acc p ->
        match acc with
        | top :: _ when Prefix.subsumes top p -> acc
        | _ -> p :: acc)
      [] aggregates
  in
  if tops = [] then Fun.id
  else begin
    let top_tbl = Prefix.Tbl.create 64 in
    List.iter (fun p -> Prefix.Tbl.replace top_tbl p ()) tops;
    let lengths =
      List.sort_uniq compare
        (List.map (fun p -> (Prefix.len p, Prefix.family p)) tops)
    in
    fun p ->
      let rec find = function
        | [] -> p
        | (len, fam) :: rest ->
            if len > Prefix.len p then p
            else if fam <> Prefix.family p then find rest
            else
              let k = Prefix.make (Prefix.ip p) len in
              if Prefix.Tbl.mem top_tbl k then k else find rest
      in
      find lengths
  end

(** The planner's view of a route input set: every prefix a run over
    it can touch (the routes' own, network statements, aggregates and
    redistributed local rows) weighed under its shard key.  [pl_key]
    answers for any prefix and only reads, so domains share it. *)
type plan = {
  pl_key : Prefix.t -> Prefix.t;
  pl_weights : (Prefix.t * int) list;  (** every key once, any order *)
}

let plan (model : Model.t) (routes : Route.t list) : plan =
  let net = model.Model.net in
  let key = shard_key net in
  let weight = Prefix.Tbl.create 4096 and key_of = Prefix.Tbl.create 4096 in
  let add p =
    let k =
      match Prefix.Tbl.find_opt key_of p with
      | Some k -> k
      | None ->
          let k = key p in
          Prefix.Tbl.replace key_of p k;
          k
    in
    Prefix.Tbl.replace weight k
      (1 + Option.value (Prefix.Tbl.find_opt weight k) ~default:0)
  in
  List.iter (fun (r : Route.t) -> add r.Route.prefix) routes;
  Smap.iter
    (fun name (ctx : Bgp.device_ctx) ->
      let bgp = ctx.Bgp.d_cfg.Types.dc_bgp in
      List.iter (fun (p, _) -> add p) bgp.Types.bgp_networks;
      List.iter (fun (ag : Types.aggregate) -> add ag.Types.ag_prefix)
        bgp.Types.bgp_aggregates;
      let protos = List.map fst bgp.Types.bgp_redistribute in
      List.iter
        (fun (r : Route.t) ->
          if List.mem r.Route.proto protos then add r.Route.prefix)
        (Option.value (Smap.find_opt name model.Model.local_tables)
           ~default:[]))
    net;
  { pl_key =
      (fun p ->
        match Prefix.Tbl.find_opt key_of p with Some k -> k | None -> key p);
    pl_weights = Prefix.Tbl.fold (fun k w acc -> (k, w) :: acc) weight [] }

(* [xs] cut into [n] pieces by [piece_of] their prefix, each piece's
   items in their order in [xs] *)
let bucket n (piece_of : Prefix.t -> int) (prefix : 'a -> Prefix.t)
    (xs : 'a list) : 'a list array =
  let b = Array.make n [] in
  List.iter (fun x -> let i = piece_of (prefix x) in b.(i) <- x :: b.(i)) xs;
  Array.map List.rev b

(** One shard's work: its prefix set (or [None], no restriction), the
    representative routes and classes it simulates and the local-table
    rows it emits. *)
type part = {
  pt_shard : int;
  pt_keep : (Prefix.t -> bool) option;
  pt_reps : Route.t list;
  pt_groups : Ec.group list;
  pt_locals : Route.t list;
}

(** Split a full run into at most [domains] shards: the plan of its
    representatives, keys heaviest first onto the least loaded shard.  A
    prefix of no planned key (none arises: VRF leaking keeps the prefix)
    would fall to shard 0, so the shards partition every prefix. *)
let shard_parts ~domains (model : Model.t) ~(reps : Route.t list)
    ~(groups : Ec.group list) ~(locals : Route.t list) : part list =
  let pl = plan model reps in
  let keys =
    List.sort
      (fun (k1, w1) (k2, w2) ->
        if w1 <> w2 then Int.compare w2 w1 else Prefix.compare k1 k2)
      pl.pl_weights
  in
  let loads = Array.make (max 1 domains) 0 in
  let shard_of_key = Prefix.Tbl.create 1024 in
  List.iter
    (fun (k, w) ->
      let i = ref 0 in
      Array.iteri (fun j l -> if l < loads.(!i) then i := j) loads;
      loads.(!i) <- loads.(!i) + w;
      Prefix.Tbl.replace shard_of_key k !i)
    keys;
  let shard_of p =
    Option.value (Prefix.Tbl.find_opt shard_of_key (pl.pl_key p)) ~default:0
  in
  let n = Array.length loads in
  let prefix (r : Route.t) = r.Route.prefix in
  let reps_b = bucket n shard_of prefix reps
  and groups_b = bucket n shard_of (fun (g : Ec.group) -> g.Ec.rep_prefix) groups
  and locals_b = bucket n shard_of prefix locals in
  List.filter_map
    (fun i ->
      if loads.(i) = 0 && i > 0 then None
      else
        Some
          { pt_shard = i; pt_keep = Some (fun p -> shard_of p = i);
            pt_reps = reps_b.(i); pt_groups = groups_b.(i);
            pt_locals = locals_b.(i) })
    (List.init n Fun.id)

type order = Ordered | Random of int

let shuffle seed arr =
  let st = Random.State.make [| seed |] in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

type run = {
  rn_keys : Prefix.t list;
  rn_routes : Route.t list;
  rn_range : Ip.t * Ip.t;
}

let runs ~order ~n (model : Model.t) (routes : Route.t list) : run list =
  let pl = plan model routes in
  let keys =
    Array.of_list
      (List.sort (fun (a, _) (b, _) -> Prefix.compare a b) pl.pl_weights)
  in
  (match order with
  | Ordered ->
      Array.stable_sort
        (fun (a, _) (b, _) ->
          Ip.compare (Prefix.last_addr a) (Prefix.last_addr b))
        keys
  | Random seed -> shuffle seed keys);
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 keys in
  let per = max 1 ((total + max 1 n - 1) / max 1 n) in
  (* consecutive keys; a run closes once its weight reaches [per] *)
  let cuts = ref [] and cur = ref [] and w = ref 0 in
  Array.iter
    (fun (k, kw) ->
      cur := k :: !cur;
      w := !w + kw;
      if !w >= per then begin
        cuts := List.rev !cur :: !cuts;
        cur := [];
        w := 0
      end)
    keys;
  if !cur <> [] then cuts := List.rev !cur :: !cuts;
  let cuts = Array.of_list (List.rev !cuts) in
  let run_of_key = Prefix.Tbl.create 1024 in
  Array.iteri
    (fun i ks -> List.iter (fun k -> Prefix.Tbl.replace run_of_key k i) ks)
    cuts;
  let routes_b =
    bucket (Array.length cuts)
      (fun p -> Prefix.Tbl.find run_of_key (pl.pl_key p))
      (fun (r : Route.t) -> r.Route.prefix) routes
  in
  let widen (lo, hi) k =
    let f = Prefix.first_addr k and l = Prefix.last_addr k in
    ( (if Ip.compare f lo < 0 then f else lo),
      if Ip.compare l hi > 0 then l else hi )
  in
  Array.to_list
    (Array.mapi
       (fun i ks ->
         let k0 = List.hd ks in
         { rn_keys = ks; rn_routes = routes_b.(i);
           rn_range =
             List.fold_left widen
               (Prefix.first_addr k0, Prefix.last_addr k0)
               ks })
       cuts)

let owns (model : Model.t) (keys : Prefix.t list) : Prefix.t -> bool =
  let key = shard_key model.Model.net and mine = Prefix.Tbl.create 64 in
  List.iter (fun k -> Prefix.Tbl.replace mine k ()) keys;
  fun p -> Prefix.Tbl.mem mine (key p)

(** Converge one part and build its sorted share of the RIB. *)
let run_part ~tm (model : Model.t) (pt : part) : Rib.t * Bgp.stats =
  let sp =
    if Telemetry.enabled tm then
      Telemetry.span tm
        ~args:[ ("shard", string_of_int pt.pt_shard) ]
        "route.shard"
    else Hoyan_telemetry.Trace.null_span
  in
  let rows, stats =
    Bgp.run ~tm ?only:pt.pt_keep ~shard:pt.pt_shard model.Model.net
      { Bgp.in_routes = pt.pt_reps; in_local_tables = model.Model.local_tables }
  in
  let rib = Rib.of_routes (rows @ expand pt.pt_groups rows @ pt.pt_locals) in
  if Telemetry.enabled tm then begin
    let prefixes = Prefix.Tbl.create 256 in
    List.iter
      (fun (r : Route.t) -> Prefix.Tbl.replace prefixes r.Route.prefix ())
      pt.pt_reps;
    Telemetry.finish tm sp
      ~args:
        [ ("prefixes", string_of_int (Prefix.Tbl.length prefixes));
          ("rows", string_of_int (Rib.length rib));
          ("messages", string_of_int stats.Bgp.st_messages) ]
  end;
  (rib, stats)

let ev_result (tm : Telemetry.t) (r : result) =
  if Telemetry.enabled tm then begin
    Telemetry.count tm "hoyan_route_fixpoint_rounds_total"
      r.bgp_stats.Bgp.st_rounds;
    Telemetry.observe tm ~labels:[ ("phase", "route") ]
      "hoyan_ec_compression_ratio" r.compression;
    Telemetry.event tm "route_sim.done"
      [
        ("inputs", Journal.I r.input_count);
        ("ecs", Journal.I r.ec_count);
        ("compression", Journal.F r.compression);
        ("rounds", Journal.I r.bgp_stats.Bgp.st_rounds);
        ("messages", Journal.I r.bgp_stats.Bgp.st_messages);
        ("rib_rows", Journal.I (Rib.length r.rib));
        ("shards", Journal.I r.shards);
      ]
  end

(** Run the route simulation.  [use_ecs=false] disables EC compression
    (ablation). *)
let run ?tm ?(use_ecs = true) ?(include_locals = true) ?only
    ?(domains = Parallel.default_domains ()) (model : Model.t)
    ~(input_routes : Route.t list) () : result =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let keep (r : Route.t) =
    match only with None -> true | Some f -> f r.Route.prefix
  in
  let all_inputs =
    match only with None -> input_routes | Some _ -> List.filter keep input_routes
  in
  let input_count = List.length all_inputs in
  let groups, reps, ec_count, compression =
    if not use_ecs then ([], all_inputs, input_count, 1.0)
    else
      let groups =
        Telemetry.with_span tm "route.ec_group" (fun () ->
            Ec.group_routes (Ec.signature_ctx model.Model.configs) all_inputs)
      in
      (groups, Ec.simulated_routes groups, List.length groups,
       Ec.compression groups)
  in
  let locals =
    if not include_locals then []
    else
      Smap.fold
        (fun _ rs acc -> List.filter keep rs @ acc)
        model.Model.local_tables []
  in
  (* a restricted run is small: splitting it costs more than it saves *)
  let parts =
    if domains <= 1 || Option.is_some only then
      [ { pt_shard = 0; pt_keep = only; pt_reps = reps;
          pt_groups = groups; pt_locals = locals } ]
    else shard_parts ~domains model ~reps ~groups ~locals
  in
  let results =
    Telemetry.with_span tm "route.fixpoint" (fun () ->
        Parallel.map ~tm ~domains:(List.length parts)
          (run_part ~tm model)
          parts)
  in
  let bgp_stats =
    List.fold_left
      (fun (acc : Bgp.stats) (_, (s : Bgp.stats)) ->
        { Bgp.st_rounds = max acc.Bgp.st_rounds s.Bgp.st_rounds;
          st_messages = acc.Bgp.st_messages + s.Bgp.st_messages;
          st_selected = acc.Bgp.st_selected + s.Bgp.st_selected })
      { Bgp.st_rounds = 0; st_messages = 0; st_selected = 0 }
      results
  in
  (* the one canonicalisation: each part is sorted, the union merges
     them per device; the copy makes the many whole-RIB RCL scans walk
     memory sequentially *)
  let res =
    { rib = Rib.copy (Rib.union (List.map fst results)); bgp_stats;
      input_count; ec_count; compression; shards = List.length parts }
  in
  ev_result tm res;
  res
