(** Static failure-equivalence analysis — see the .mli for the slice
    argument and the three pruning tiers.  The fingerprint computed here
    must track every input of the property-restricted simulation slice:
    whenever the simulator grows a new dependence of route state on
    topology (beyond sessions, IGP rows, SR resolution and removals),
    this module must fingerprint it too, or the brute-vs-pruned oracle
    in test_kfailure will catch the divergence.  The prefixes it
    fingerprints are {!Semantic.footprint_closure}'s, the same set
    [Kfailure.check] restricts every simulated fixpoint to, so the
    fingerprinted slice always covers what the simulation reads. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Vsb = Hoyan_config.Vsb
module Isis = Hoyan_proto.Isis
module Bgp = Hoyan_proto.Bgp
module Sr = Hoyan_proto.Sr
module Telemetry = Hoyan_telemetry.Telemetry
module Smap = Map.Make (String)
module Sset = Set.Make (String)
module Iset = Set.Make (Int)

type failure = Link_down of string * string | Device_down of string

let failure_to_string = function
  | Link_down (a, b) -> Printf.sprintf "link %s-%s down" a b
  | Device_down d -> Printf.sprintf "device %s down" d

let topo_op = function
  | Link_down (a, b) -> Cp.Remove_link { ra = a; rb = b }
  | Device_down d -> Cp.Remove_device d

type footprint =
  | Reach_all of Prefix.t * string list
  | Prefix_scoped of Prefix.t list * string list
  | Opaque

let footprint_prefixes = function
  | Reach_all (p, _) -> [ p ]
  | Prefix_scoped (ps, _) -> ps
  | Opaque -> []

(* Emit the lexicographically ordered k-subsets without the quadratic
   [@] of the naive version: the shared prefix is threaded as a reversed
   accumulator and each subset is materialized exactly once. *)
let combinations k l =
  let rec go k l prefix acc =
    if k = 0 then List.rev prefix :: acc
    else
      match l with
      | [] -> acc
      | x :: rest ->
          let acc = go (k - 1) rest (x :: prefix) acc in
          go k rest prefix acc
  in
  List.rev (go k l [] [])

let candidates ?(devices = true) ?(links = true) (topo : Topology.t) :
    failure list =
  let link_failures =
    if not links then []
    else
      Topology.edges topo
      |> List.filter_map (fun (e : Topology.edge) ->
             if String.compare e.Topology.src e.Topology.dst < 0 then
               Some (Link_down (e.Topology.src, e.Topology.dst))
             else None)
      |> List.sort_uniq compare
  in
  let device_failures =
    if not devices then []
    else Topology.device_names topo |> List.map (fun d -> Device_down d)
  in
  link_failures @ device_failures

let scenarios_up_to ~k cands =
  List.concat_map
    (fun i -> combinations i cands)
    (List.init k (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  an_graph : Semantic.t;
  an_topo : Topology.t;
  an_configs : Types.t Smap.t;
  an_input_routes : Route.t list;
  an_te : bool;
  an_tm : Telemetry.t;
  an_closures : (string, Sset.t) Hashtbl.t;
      (* prefix (printed) -> closure members; memoized across the whole
         candidate set — every relevant prefix shares one cache *)
  an_edges : (string, (Semantic.session_edge * bool) list) Hashtbl.t;
      (* per device: session edges in a deterministic order, with the
         link-address-peering flag precomputed (it is config-only) *)
}

let create ?tm ?(te_aware = true) (g : Semantic.t)
    ~(input_routes : Route.t list) : t =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  match g.Semantic.g_input.Lint.li_topo with
  | None -> invalid_arg "Failure_eq.create: semantic graph has no topology"
  | Some topo ->
      {
        an_graph = g;
        an_topo = topo;
        an_configs = g.Semantic.g_input.Lint.li_configs;
        an_input_routes = input_routes;
        an_te = te_aware;
        an_tm = tm;
        an_closures = Hashtbl.create 64;
        an_edges = Hashtbl.create 256;
      }

let closure_of (t : t) (p : Prefix.t) : Sset.t =
  let key = Prefix.to_string p in
  match Hashtbl.find_opt t.an_closures key with
  | Some s -> s
  | None ->
      let members =
        Semantic.closure ~tm:t.an_tm t.an_graph
          ~input_routes:t.an_input_routes p
      in
      let s =
        Hashtbl.fold
          (fun d () acc ->
            if Semantic.in_topo t.an_graph d then Sset.add d acc else acc)
          members Sset.empty
      in
      Hashtbl.replace t.an_closures key s;
      s

let region (t : t) (p : Prefix.t) : string list =
  Sset.elements (closure_of t p)

(* The session edges out of [u], deterministically ordered, each tagged
   with whether it is a link-address peering (the neighbor address sits
   on one of [u]'s connected subnets): the [direct] argument of
   [Bgp.session_live]. *)
let edges_of (t : t) (u : string) : (Semantic.session_edge * bool) list =
  match Hashtbl.find_opt t.an_edges u with
  | Some es -> es
  | None ->
      let cfg = Smap.find_opt u t.an_configs in
      let direct_peering (e : Semantic.session_edge) =
        match cfg with
        | None -> false
        | Some c -> Types.on_connected_subnet c e.Semantic.se_out.Types.nb_addr
      in
      let es =
        Option.value (Hashtbl.find_opt t.an_graph.Semantic.g_out u) ~default:[]
        |> List.filter (fun (e : Semantic.session_edge) ->
               Semantic.in_topo t.an_graph e.Semantic.se_dst)
        |> List.sort (fun (a : Semantic.session_edge) (b : Semantic.session_edge) ->
               compare
                 (a.Semantic.se_dst, a.Semantic.se_out.Types.nb_addr)
                 (b.Semantic.se_dst, b.Semantic.se_out.Types.nb_addr))
        |> List.map (fun e -> (e, direct_peering e))
      in
      Hashtbl.replace t.an_edges u es;
      es

(* ------------------------------------------------------------------ *)
(* Influence restriction                                               *)
(* ------------------------------------------------------------------ *)

let asn_of (t : t) (d : string) : int =
  match Smap.find_opt d t.an_configs with
  | Some c -> c.Types.dc_bgp.Types.bgp_asn
  | None -> 0

(* Whether any route policy of [d] contains an AS-path overwrite.  Such a
   device may emit routes whose paths lost their history, so the
   loop-block proof below must not assume anything survives its export
   (or import) policies.  Per-device rather than per-edge: coarser, but
   the action is a rare vendor feature. *)
let may_overwrite_aspath (t : t) (d : string) : bool =
  match Smap.find_opt d t.an_configs with
  | None -> false
  | Some cfg ->
      Smap.exists
        (fun _ (pol : Types.route_policy) ->
          List.exists
            (fun (n : Types.policy_node) ->
              List.exists
                (function Types.Set_aspath_overwrite _ -> true | _ -> false)
                n.Types.pn_sets)
            pol.Types.rp_nodes)
        cfg.Types.dc_policies

let adding_own_asn (t : t) (d : string) : bool =
  match Smap.find_opt d t.an_configs with
  | None -> true
  | Some cfg -> (Vsb.of_config cfg).Vsb.adding_own_asn

(* Devices that can influence the route state observed at [monitored]:
   the backward closure of [monitored] over session edges that are not
   provably AS-loop-blocked, intersected with the forward closure [fwd].

   The proof obligation is that a device [x] outside the result cannot
   affect any result member's state for the relevant prefixes.  We
   compute [nec d] = the set of ASNs provably present in the AS path of
   EVERY route for the relevant prefixes held at [d] (a decreasing
   intersection dataflow from the origins; an eBGP hop out of [u] adds
   [asn u] unless an AS-path-overwriting policy combined with the
   [adding_own_asn] VSB could suppress it).  An edge [u -> d] is
   non-transmissible when it is eBGP and [asn d ∈ nec u]: the simulator's
   AS-loop check drops every such arrival.  Any real propagation path
   into a monitored device therefore uses transmissible edges only and
   lies entirely inside the backward closure.  Failures only remove
   paths, so [nec] only grows under failure and blocked edges stay
   blocked in every scenario. *)
let influencers (t : t) ~(fwd : Sset.t) ~(origins : string list)
    ~(monitored : string list) : Sset.t =
  if monitored = [] then fwd
  else begin
    let nec : (string, Iset.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun o -> if Sset.mem o fwd then Hashtbl.replace nec o Iset.empty)
      origins;
    (* AS set provably on every route exported along [u -> d], or [None]
       when [u] provably never holds the route. *)
    let exported u d =
      match Hashtbl.find_opt nec u with
      | None -> None
      | Some s ->
          let ow = may_overwrite_aspath t u in
          let s = if ow then Iset.empty else s in
          let ebgp = asn_of t u <> asn_of t d in
          if ebgp && ((not ow) || adding_own_asn t u) then
            Some (Iset.add (asn_of t u) s)
          else Some s
    in
    let transmissible u d =
      match exported u d with
      | None -> false
      | Some s ->
          let ebgp = asn_of t u <> asn_of t d in
          not (ebgp && Iset.mem (asn_of t d) s)
    in
    let members = Sset.elements fwd in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun u ->
          List.iter
            (fun ((e : Semantic.session_edge), _) ->
              let d = e.Semantic.se_dst in
              if Sset.mem d fwd && transmissible u d then
                match exported u d with
                | None -> ()
                | Some s -> (
                    let contrib =
                      if may_overwrite_aspath t d then Iset.empty else s
                    in
                    match Hashtbl.find_opt nec d with
                    | None ->
                        Hashtbl.replace nec d contrib;
                        changed := true
                    | Some old ->
                        let inter = Iset.inter old contrib in
                        if not (Iset.equal inter old) then begin
                          Hashtbl.replace nec d inter;
                          changed := true
                        end))
            (edges_of t u))
        members
    done;
    let incoming : (string, string list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun u ->
        List.iter
          (fun ((e : Semantic.session_edge), _) ->
            let d = e.Semantic.se_dst in
            if Sset.mem d fwd then
              Hashtbl.replace incoming d
                (u :: Option.value (Hashtbl.find_opt incoming d) ~default:[]))
          (edges_of t u))
      members;
    let rec bfs seen = function
      | [] -> seen
      | x :: rest ->
          if Sset.mem x seen then bfs seen rest
          else
            let seen = Sset.add x seen in
            let preds =
              Option.value (Hashtbl.find_opt incoming x) ~default:[]
              |> List.filter (fun u ->
                     (not (Sset.mem u seen)) && transmissible u x)
            in
            bfs seen (preds @ rest)
    in
    let start =
      List.filter (fun d -> Semantic.in_topo t.an_graph d) monitored
    in
    bfs Sset.empty start
  end

(* In-topo owners of every address that can appear as the next hop of a
   route for a relevant prefix at a slice device: the BGP decision
   process reads IGP costs only through [d_igp_cost] at route next hops,
   so these are the only IGP columns the fingerprint needs.  Next hops
   come from (a) input routes for the relevant prefixes, (b) static
   routes for them (redistribution preserves the configured next hop),
   (c) [Set_nexthop] policy actions on slice devices, and (d) eBGP or
   next-hop-self exporters inside the slice, which rewrite the next hop
   to a session address they own.  Locally originated routes (networks,
   aggregates, redistributed connected/IS-IS) carry no next hop and cost
   a constant [Some 0]; external addresses with no in-topo owner resolve
   through config-only rules (connected subnet / static match), constant
   under every scenario. *)
let nh_owner_targets (t : t) ~(u_set : Sset.t) ~(rp : Prefix.t list) : Sset.t =
  let owner acc addr =
    match Hashtbl.find_opt t.an_graph.Semantic.g_owner addr with
    | Some d when Semantic.in_topo t.an_graph d -> Sset.add d acc
    | _ -> acc
  in
  let relevant p = List.exists (Prefix.equal p) rp in
  let acc =
    List.fold_left
      (fun acc (r : Route.t) ->
        if relevant r.Route.prefix then
          match r.Route.nexthop with Some a -> owner acc a | None -> acc
        else acc)
      Sset.empty t.an_input_routes
  in
  let acc =
    Smap.fold
      (fun _ (cfg : Types.t) acc ->
        List.fold_left
          (fun acc (s : Types.static_route) ->
            if relevant s.Types.st_prefix then
              match s.Types.st_nexthop with Some a -> owner acc a | None -> acc
            else acc)
          acc cfg.Types.dc_statics)
      t.an_configs acc
  in
  Sset.fold
    (fun u acc ->
      let acc =
        match Smap.find_opt u t.an_configs with
        | None -> acc
        | Some cfg ->
            Smap.fold
              (fun _ (pol : Types.route_policy) acc ->
                List.fold_left
                  (fun acc (n : Types.policy_node) ->
                    List.fold_left
                      (fun acc -> function
                        | Types.Set_nexthop a -> owner acc a
                        | _ -> acc)
                      acc n.Types.pn_sets)
                  acc pol.Types.rp_nodes)
              cfg.Types.dc_policies acc
      in
      let rewrites =
        List.exists
          (fun ((e : Semantic.session_edge), _) ->
            Sset.mem e.Semantic.se_dst u_set
            && (asn_of t u <> asn_of t e.Semantic.se_dst
               || e.Semantic.se_out.Types.nb_next_hop_self))
          (edges_of t u)
      in
      if rewrites then Sset.add u acc else acc)
    u_set acc

(* ------------------------------------------------------------------ *)
(* Per-scenario fingerprints                                           *)
(* ------------------------------------------------------------------ *)

(* What one analysis fingerprints, on device indices: the restricted
   no-failure IGP view that every scenario masks (Dijkstra sources: the
   slice plus its SR waypoints; read devices: the next-hop-owner targets,
   session peers and SR waypoints and endpoints), the slice [u_list] with,
   per device, its intra-slice session edges (peer, link-address flag)
   and SR policies, and the targets [t_arr]. *)
type slice = {
  sl_base : Isis.t;
  sl_names : string array; (* u_list *)
  sl_u : int array;
  sl_pos : (int, int) Hashtbl.t; (* device index -> position in [sl_u] *)
  sl_sessions : (int * bool) list array;
  sl_sr : Types.sr_policy list array;
  sl_targets : int array; (* t_arr *)
  sl_len : int; (* fingerprint length *)
}

let slice_of (t : t) ~(u_set : Sset.t) ~(u_list : string list)
    ~(t_arr : string array) : slice =
  let owner a = Hashtbl.find_opt t.an_graph.Semantic.g_owner a in
  let sessions u =
    List.filter_map
      (fun ((e : Semantic.session_edge), direct) ->
        let d = e.Semantic.se_dst in
        if Sset.mem d u_set then Some (d, direct) else None)
      (edges_of t u)
  in
  let srs u =
    match Smap.find_opt u t.an_configs with
    | None -> []
    | Some cfg -> cfg.Types.dc_sr_policies
  in
  let waypoints =
    List.concat_map
      (fun u -> List.concat_map (fun sp -> sp.Types.sp_segments) (srs u))
      u_list
  in
  let reads =
    Array.to_list t_arr @ waypoints
    @ List.concat_map (fun u -> List.map fst (sessions u)) u_list
    @ List.concat_map
        (fun u ->
          List.filter_map (fun sp -> owner sp.Types.sp_endpoint) (srs u))
        u_list
  in
  let base =
    Isis.compute ~te_aware:t.an_te ~sources:(u_list @ waypoints) ~reads
      t.an_topo t.an_configs
  in
  (* every slice device, target and session peer is in the topology *)
  let ix d = Option.get (Isis.index base d) in
  let names = Array.of_list u_list in
  let u = Array.map ix names in
  let pos = Hashtbl.create (Array.length u) in
  Array.iteri (fun i d -> Hashtbl.replace pos d i) u;
  let sl_sessions =
    Array.map
      (fun n -> List.map (fun (p, direct) -> (ix p, direct)) (sessions n))
      names
  in
  let sl_sr = Array.map srs names in
  let bits a = Array.fold_left (fun n l -> n + List.length l) 0 a in
  {
    sl_base = base;
    sl_names = names;
    sl_u = u;
    sl_pos = pos;
    sl_sessions;
    sl_sr;
    sl_targets = Array.map ix t_arr;
    sl_len =
      (Array.length u * (1 + Array.length t_arr)) + bits sl_sessions
      + bits sl_sr;
  }

(* The failed-topology IGP view of one scenario. *)
let view_of (sl : slice) (fs : failure list) : Isis.t =
  let ix d = Option.get (Isis.index sl.sl_base d) in
  let links, devices =
    List.partition_map
      (function
        | Link_down (a, b) -> Left (ix a, ix b) | Device_down d -> Right (ix d))
      fs
  in
  Isis.fail sl.sl_base ~links ~devices

let session_live (v : Isis.t) ~direct ~local ~peer =
  Bgp.session_live ~linked:(Isis.linked v)
    ~reachable:(fun src dst -> Isis.reachable v ~src ~dst)
    ~direct ~local ~peer

(* The simulator's SR-resolution rule on the scenario's failed network,
   where a removed tail owns no address: it is down in the view, so no
   path reaches it either. *)
let sr_resolves (t : t) (v : Isis.t) (u : string) (sp : Types.sr_policy) =
  Sr.path v ~endpoint_of:(Hashtbl.find_opt t.an_graph.Semantic.g_owner)
    ~device:u sp
  |> Option.is_some

(* The property-restricted impact signature of one scenario, as a
   fixed-layout int array: per slice device, a liveness slot and its IGP
   costs to the next-hop-owner targets ([max_int] = unreachable; zeros
   for a removed device), then the up-bits of its intra-slice sessions
   (an edge to a device outside the slice can only affect state the
   property provably never observes), then the resolution bits of its SR
   policies.  Equal arrays ⇒ identical property-restricted route state
   (the slice argument in the .mli). *)
let fingerprint (t : t) (sl : slice) (v : Isis.t) : int array =
  let nt = Array.length sl.sl_targets in
  let fp = Array.make sl.sl_len 0 in
  let bit = ref (Array.length sl.sl_u * (1 + nt)) in
  let set b =
    if b then fp.(!bit) <- 1;
    incr bit
  in
  Array.iteri
    (fun i u ->
      let live = not (Isis.down v u) in
      let row = i * (1 + nt) in
      if live then begin
        fp.(row) <- 1;
        Array.iteri
          (fun j tgt -> fp.(row + 1 + j) <- Isis.cost v ~src:u ~dst:tgt)
          sl.sl_targets
      end;
      List.iter
        (fun (peer, direct) ->
          set (live && session_live v ~direct ~local:u ~peer))
        sl.sl_sessions.(i);
      List.iter
        (fun sp -> set (live && sr_resolves t v sl.sl_names.(i) sp))
        sl.sl_sr.(i))
    sl.sl_u;
  fp

(* Classes are keyed on exact fingerprint equality. *)
module Fp_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash = Array.fold_left (fun h x -> (h * 65599) + x) 0
end)

(* ------------------------------------------------------------------ *)
(* Cut analysis (tier 3)                                               *)
(* ------------------------------------------------------------------ *)

(* Devices of [devs] provably missing prefix [p] under the scenario:
   unreachable from every surviving origin ([origins]: [p]'s origins
   inside the influence slice) in the permissive session graph
   restricted to the slice.  Sound because
   (a) origins only shrink under failure (origination is config-driven;
   IS-IS loopback and aggregate origins are conditional on state that
   failures only remove), (b) any real propagation path into a monitored
   device lies entirely inside the influence slice (see [influencers]:
   edges out of the slice are AS-loop-blocked in every scenario), and
   (c) the permissive graph ignores policies, which can only block
   more.  The result is determined by fingerprint content (removals and
   up-states of slice devices), so it extends from the representative
   to every member of its class. *)
let cut_missing (sl : slice) (v : Isis.t) ~(origins : int list)
    (devs : string list) : string list =
  let reach = Hashtbl.create 64 in
  let rec bfs = function
    | [] -> ()
    | d :: rest ->
        if Hashtbl.mem reach d then bfs rest
        else begin
          Hashtbl.replace reach d ();
          let next =
            List.filter_map
              (fun (peer, direct) ->
                if
                  (not (Isis.down v peer))
                  && session_live v ~direct ~local:d ~peer
                then Some peer
                else None)
              sl.sl_sessions.(Hashtbl.find sl.sl_pos d)
          in
          bfs (next @ rest)
        end
  in
  bfs (List.filter (fun o -> not (Isis.down v o)) origins);
  List.filter
    (fun d ->
      match Isis.index sl.sl_base d with
      | Some i -> not (Hashtbl.mem reach i)
      | None -> true)
    devs

(* ------------------------------------------------------------------ *)
(* The plan                                                            *)
(* ------------------------------------------------------------------ *)

type decision = Carry_base | Static_violation of string | Simulate

type cls = {
  cl_rep : failure list;
  cl_members : failure list list;
  cl_decision : decision;
}

type plan = {
  pl_k : int;
  pl_scenarios : failure list list;
  pl_class_of : int array;
  pl_classes : cls list;
  pl_total : int;
  pl_carried : int;
  pl_static : int;
  pl_replicated : int;
  pl_to_simulate : int;
  pl_opaque : bool;
}

let singletons ~devices ~links (topo : Topology.t) ~(k : int) : plan =
  let scen = scenarios_up_to ~k (candidates ~devices ~links topo) in
  let total = List.length scen in
  {
    pl_k = k;
    pl_scenarios = scen;
    pl_class_of = Array.init total Fun.id;
    pl_classes =
      List.map
        (fun s -> { cl_rep = s; cl_members = [ s ]; cl_decision = Simulate })
        scen;
    pl_total = total;
    pl_carried = 0;
    pl_static = 0;
    pl_replicated = 0;
    pl_to_simulate = total;
    pl_opaque = true;
  }

let analyze ?tm ?(devices = false) ?(links = true) (t : t) ~(k : int)
    (fp : footprint) : plan =
  let tm = match tm with Some tm -> tm | None -> t.an_tm in
  (* IGP rows the scenario views reused from the no-failure rows /
     repaired or recomputed on the masked graph, and the nodes they
     re-settled, counted and put on the span *)
  let reused = ref 0 and recomputed = ref 0 and resettled = ref 0 in
  let sp = Telemetry.span tm "whatif.analyze" in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.count tm "hoyan_whatif_igp_rows_reused_total" !reused;
      Telemetry.count tm "hoyan_whatif_igp_rows_recomputed_total" !recomputed;
      Telemetry.count tm "hoyan_whatif_igp_vertices_resettled_total"
        !resettled;
      Telemetry.finish tm sp
        ~args:
          [
            ("igp_rows_reused", string_of_int !reused);
            ("igp_rows_recomputed", string_of_int !recomputed);
            ("igp_vertices_resettled", string_of_int !resettled);
          ])
    (fun () ->
      match footprint_prefixes fp with
      | [] ->
          (* Opaque property (or an empty footprint): nothing to prune
             with — every scenario is its own class and simulates. *)
          singletons ~devices ~links t.an_topo ~k
      | ps ->
          let scen =
            scenarios_up_to ~k (candidates ~devices ~links t.an_topo)
          in
          let total = List.length scen in
          (* Relevant prefixes: the footprint closed under aggregate
             contribution — exactly the prefixes [Kfailure.check]'s
             restricted fixpoints simulate; their closures share the
             memo table. *)
          let rp =
            Semantic.footprint_closure t.an_graph.Semantic.g_input
              ~input_routes:t.an_input_routes ps
          in
          let fwd =
            List.fold_left
              (fun acc q -> Sset.union acc (closure_of t q))
              Sset.empty rp
          in
          (* Influence slice: devices whose state the property can read
             (the monitored set) plus every device that can transmit a
             relevant route toward them.  Devices in the forward closure
             but outside the slice — e.g. stub ASes behind an eBGP
             boundary whose re-exports the AS-loop check provably drops —
             contribute nothing to the fingerprint, so their failures
             carry the base verdict. *)
          let monitored =
            match fp with
            | Reach_all (_, ds) | Prefix_scoped (_, ds) -> ds
            | Opaque -> []
          in
          let origins =
            List.concat_map
              (fun q ->
                List.map fst
                  (Semantic.exact_origins t.an_graph
                     ~input_routes:t.an_input_routes q)
                @ Semantic.over_origins t.an_graph q)
              rp
          in
          let u_set =
            let infl = influencers t ~fwd ~origins ~monitored in
            List.fold_left
              (fun s d ->
                if Semantic.in_topo t.an_graph d then Sset.add d s else s)
              infl monitored
          in
          let u_list = Sset.elements u_set in
          (* IGP row targets: owners of candidate next hops (the only
             addresses the decision process reads costs for) and devices
             whose loopback host route is itself a relevant prefix
             (IS-IS redistribution). *)
          let loop_devs =
            Topology.devices t.an_topo
            |> List.filter_map (fun (d : Topology.device) ->
                   let rid = d.Topology.router_id in
                   let host =
                     Prefix.make rid (Ip.family_bits (Ip.family rid))
                   in
                   if List.exists (Prefix.equal host) rp then
                     Some d.Topology.name
                   else None)
            |> Sset.of_list
          in
          let t_arr =
            Array.of_list
              (Sset.elements
                 (Sset.union (nh_owner_targets t ~u_set ~rp) loop_devs))
          in
          let sl = slice_of t ~u_set ~u_list ~t_arr in
          let view fs =
            let v = view_of sl fs in
            reused := !reused + Isis.reused v;
            recomputed := !recomputed + Isis.recomputed v;
            resettled := !resettled + Isis.resettled v;
            v
          in
          let base_fp = fingerprint t sl (view []) in
          (* The cut analysis's origins: the monitored prefix's origins
             inside the slice. *)
          let cut_origins =
            match fp with
            | Reach_all (p, _) ->
                List.map fst
                  (Semantic.exact_origins t.an_graph
                     ~input_routes:t.an_input_routes p)
                @ Semantic.over_origins t.an_graph p
                |> List.filter (fun d ->
                       Semantic.in_topo t.an_graph d && Sset.mem d u_set)
                |> List.filter_map (Isis.index sl.sl_base)
            | _ -> []
          in
          (* The class decision, taken on the view of the class's first
             member (its representative) when it opens the class — one
             IGP view per scenario. *)
          let decide key v =
            if key = base_fp then Carry_base
            else
              match fp with
              | Reach_all (_, devs) -> (
                  match cut_missing sl v ~origins:cut_origins devs with
                  | [] -> Simulate
                  | ms ->
                      Static_violation
                        (Printf.sprintf "statically disconnected: missing on %s"
                           (String.concat "," ms)))
              | _ -> Simulate
          in
          (* Group scenarios by fingerprint, across sizes (tier 3's
             partial-order reduction falls out of cross-size classes). *)
          let by_fp = Fp_table.create 256 in
          let order = ref [] (* (key, decision), newest class first *) in
          let class_of = Array.make total 0 in
          List.iteri
            (fun i fs ->
              let v = view fs in
              let key = fingerprint t sl v in
              match Fp_table.find_opt by_fp key with
              | Some (id, members) ->
                  class_of.(i) <- id;
                  Fp_table.replace by_fp key (id, fs :: members)
              | None ->
                  let id = Fp_table.length by_fp in
                  class_of.(i) <- id;
                  Fp_table.replace by_fp key (id, [ fs ]);
                  order := (key, decide key v) :: !order)
            scen;
          let classes =
            List.rev !order
            |> List.map (fun (key, decision) ->
                   let _, members_rev = Fp_table.find by_fp key in
                   let members = List.rev members_rev in
                   {
                     cl_rep = List.hd members;
                     cl_members = members;
                     cl_decision = decision;
                   })
          in
          let count pred =
            List.fold_left
              (fun acc c ->
                if pred c.cl_decision then acc + List.length c.cl_members
                else acc)
              0 classes
          in
          let carried = count (function Carry_base -> true | _ -> false) in
          let static =
            count (function Static_violation _ -> true | _ -> false)
          in
          let sim_members =
            count (function Simulate -> true | _ -> false)
          in
          let to_simulate =
            List.length
              (List.filter
                 (fun c -> c.cl_decision = Simulate)
                 classes)
          in
          Telemetry.count tm "hoyan_whatif_scenarios_total" total;
          Telemetry.count tm "hoyan_whatif_simulated_total" to_simulate;
          {
            pl_k = k;
            pl_scenarios = scen;
            pl_class_of = class_of;
            pl_classes = classes;
            pl_total = total;
            pl_carried = carried;
            pl_static = static;
            pl_replicated = sim_members - to_simulate;
            pl_to_simulate = to_simulate;
            pl_opaque = false;
          })
