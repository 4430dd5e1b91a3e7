(** Cross-device semantic analysis: the control-plane graph, symbolic
    prefix-set dataflow, and the static intent pre-checker.

    PR 2's {!Lint} pass is per-device and syntactic; this module analyses
    the *whole network* statically, with no simulation:

    - it builds a control-plane graph — resolved BGP sessions (flagging
      half-configured sessions, remote-AS and address-family mismatches),
      IS-IS adjacencies, redistribution edges and VRF route-target edges
      ([HOY020]/[HOY021]/[HOY027]/[HOY028]);
    - it runs symbolic checks over that graph: redistribution loops
      ([HOY022]), policy-less cross-VRF / cross-AS leaks ([HOY023]),
      policy terms dead under every input — the union-coverage
      generalisation of the pairwise shadowing check ([HOY024]), iBGP
      propagation gaps under the route-reflection rules ([HOY025]) and
      statics with unresolvable next hops ([HOY026]);
    - it classifies reachability intents as statically proved, refuted
      (with a concrete witness, surfaced as [HOY029]) or
      needs-simulation, so {!Hoyan_core.Verify_request} can skip the
      fixpoint for requests the abstraction already decides.

    Soundness discipline (DESIGN.md §2.4): the propagation closure is an
    *over-approximation* of where the simulator can place a route (every
    ignored rule — split horizon, communities, viability, per-VRF session
    keying — only removes advertisements), so absence from the closure
    refutes presence; the origin set used for proving presence is
    *exact* (connected subnets, statics, [network] statements and
    injected input routes install unconditionally).  Policies prune
    closure edges only through a three-valued evaluation that returns a
    definite verdict exclusively on prefix-decidable clauses. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Policy = Hoyan_config.Policy
module Bgp = Hoyan_proto.Bgp
module Smap = Types.Smap
module D = Diagnostics
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

(* ------------------------------------------------------------------ *)
(* The control-plane graph                                             *)
(* ------------------------------------------------------------------ *)

(** A resolved, reciprocal BGP session edge: [se_src]'s stanza [se_out]
    points at an address owned by [se_dst], whose stanza [se_in] points
    back at an address owned by [se_src].  This is the simulator's
    delivery rule (receiver-side stanza lookup) without the per-VRF
    keying and {!Bgp.session_live} conditions it additionally applies —
    i.e. the edge set is a superset of the sessions the simulator can
    deliver over. *)
type session_edge = {
  se_src : string;
  se_dst : string;
  se_out : Types.neighbor; (* src's stanza for dst *)
  se_in : Types.neighbor; (* dst's stanza for src *)
}

type stats = {
  st_devices : int;
  st_sessions : int; (* reciprocal directed session edges *)
  st_half_sessions : int;
  st_isis_adjacencies : int;
  st_rt_edges : int; (* VRF route-target edges (per device) *)
}

type t = {
  g_input : Lint.input;
  g_owner : (Ip.t, string) Hashtbl.t;
  g_edges : session_edge list;
  g_out : (string, session_edge list) Hashtbl.t; (* adjacency by se_src *)
  g_diags : D.t list; (* graph-construction findings (HOY020/021/027/028) *)
  g_stats : stats;
}

let asn_of (cfg : Types.t) = cfg.Types.dc_bgp.Types.bgp_asn

(** Whether [dev] takes part in the simulated network (the simulator only
    builds per-device state for topology members). *)
let in_topo (g : t) dev =
  match g.g_input.Lint.li_topo with
  | None -> true
  | Some topo -> Option.is_some (Topology.device topo dev)

(** Stanzas of [cfg] whose neighbor address resolves to [dev]. *)
let stanzas_towards owner (cfg : Types.t) dev =
  List.filter
    (fun (nb : Types.neighbor) ->
      match Hashtbl.find_opt owner nb.Types.nb_addr with
      | Some o -> String.equal o dev
      | None -> false)
    cfg.Types.dc_bgp.Types.bgp_neighbors

let session_checks (input : Lint.input) owner :
    session_edge list * int (* half sessions *) * D.t list =
  let configs = input.Lint.li_configs in
  let edges = ref [] and halves = ref 0 and diags = ref [] in
  Smap.iter
    (fun dev (cfg : Types.t) ->
      List.iter
        (fun (nb : Types.neighbor) ->
          let addr = Ip.to_string nb.Types.nb_addr in
          match Hashtbl.find_opt owner nb.Types.nb_addr with
          | None -> () (* external peer: input routes stand in *)
          | Some peer when String.equal peer dev -> ()
          | Some peer -> (
              match Smap.find_opt peer configs with
              | None -> () (* topology stub without a config *)
              | Some pcfg ->
                  if nb.Types.nb_remote_asn <> asn_of pcfg then
                    diags :=
                      D.make ~code:"HOY021" ~device:dev
                        ~obj:(Printf.sprintf "neighbor %s" addr)
                        "remote-as %d but peer %s is configured with local \
                         AS %d"
                        nb.Types.nb_remote_asn peer (asn_of pcfg)
                      :: !diags;
                  let reciprocal = stanzas_towards owner pcfg dev in
                  if reciprocal = [] then begin
                    incr halves;
                    diags :=
                      D.make ~code:"HOY020" ~device:dev
                        ~obj:(Printf.sprintf "neighbor %s" addr)
                        "peer %s has no reciprocal neighbor stanza back \
                         (half-configured session)"
                        peer
                      :: !diags
                  end
                  else begin
                    let fam = Ip.family nb.Types.nb_addr in
                    let same_family =
                      List.exists
                        (fun (r : Types.neighbor) ->
                          Ip.family r.Types.nb_addr = fam)
                        reciprocal
                    in
                    if (not same_family) && String.compare dev peer < 0 then
                      diags :=
                        D.make ~code:"HOY027" ~device:dev
                          ~obj:(Printf.sprintf "neighbor %s" addr)
                          "session with %s mixes address families: this \
                           side speaks %s, the reciprocal stanza %s"
                          peer
                          (Ip.family_to_string fam)
                          (Ip.family_to_string
                             (Ip.family
                                (List.hd reciprocal).Types.nb_addr))
                        :: !diags;
                    List.iter
                      (fun (r : Types.neighbor) ->
                        edges :=
                          { se_src = dev; se_dst = peer; se_out = nb;
                            se_in = r }
                          :: !edges)
                      reciprocal
                  end))
        cfg.Types.dc_bgp.Types.bgp_neighbors)
    configs;
  (List.rev !edges, !halves, List.rev !diags)

(** IS-IS adjacency audit: for every physical link between two
    IS-IS-enabled devices, both endpoint interfaces must carry an IS-IS
    stanza or no adjacency forms ([HOY028]).  Returns the number of
    fully-configured adjacencies. *)
let isis_checks (input : Lint.input) : int * D.t list =
  match input.Lint.li_topo with
  | None -> (0, [])
  | Some topo ->
      let configs = input.Lint.li_configs in
      let has_isis_iface (cfg : Types.t) ifname =
        List.exists
          (fun (ii : Types.isis_iface) -> String.equal ii.Types.ii_name ifname)
          cfg.Types.dc_isis.Types.isis_ifaces
      in
      let adjacencies = ref 0 and diags = ref [] in
      List.iter
        (fun (e : Topology.edge) ->
          if String.compare e.Topology.src e.Topology.dst < 0 then
            match
              ( Smap.find_opt e.Topology.src configs,
                Smap.find_opt e.Topology.dst configs )
            with
            | Some sc, Some dc
              when sc.Types.dc_isis.Types.isis_enabled
                   && dc.Types.dc_isis.Types.isis_enabled -> (
                let s = has_isis_iface sc e.Topology.src_if in
                let d = has_isis_iface dc e.Topology.dst_if in
                match (s, d) with
                | true, true -> incr adjacencies
                | false, false -> ()
                | _ ->
                    let lacking, iface, other =
                      if s then (e.Topology.dst, e.Topology.dst_if, e.Topology.src)
                      else (e.Topology.src, e.Topology.src_if, e.Topology.dst)
                    in
                    diags :=
                      D.make ~code:"HOY028" ~device:lacking
                        ~obj:(Printf.sprintf "interface %s" iface)
                        "link to %s runs IS-IS on the far end only: this \
                         side's interface has no IS-IS stanza, so no \
                         adjacency can form"
                        other
                      :: !diags)
            | _ -> ())
        (Topology.edges topo);
      (!adjacencies, List.rev !diags)

(* ------------------------------------------------------------------ *)
(* VRF route-target edges: loops and leaks                             *)
(* ------------------------------------------------------------------ *)

(** Directed route-target edges between the device's VRFs: [a -> b] when
    some route target exported by [a] is imported by [b]. *)
let rt_edges (cfg : Types.t) : (Types.vrf_def * Types.vrf_def) list =
  let vrfs = cfg.Types.dc_bgp.Types.bgp_vrfs in
  List.concat_map
    (fun (a : Types.vrf_def) ->
      List.filter_map
        (fun (b : Types.vrf_def) ->
          if String.equal a.Types.vd_name b.Types.vd_name then None
          else if
            List.exists
              (fun rt -> List.mem rt b.Types.vd_import_rts)
              a.Types.vd_export_rts
          then Some (a, b)
          else None)
        vrfs)
    cfg.Types.dc_bgp.Types.bgp_vrfs

(** [HOY022]: a cycle among distinct VRFs of one device re-injects routes
    into the table they came from. *)
let redistribution_loop_check dev (cfg : Types.t) : D.t list =
  let edges = rt_edges cfg in
  if edges = [] then []
  else
    let succ v =
      List.filter_map
        (fun ((a : Types.vrf_def), (b : Types.vrf_def)) ->
          if String.equal a.Types.vd_name v then Some b.Types.vd_name else None)
        edges
    in
    (* DFS with an explicit path to report the cycle *)
    let visited = Hashtbl.create 8 in
    let cycle = ref None in
    let rec dfs path v =
      if !cycle = None then
        if List.mem v path then
          cycle :=
            Some (List.rev (v :: path))
        else if not (Hashtbl.mem visited v) then begin
          Hashtbl.replace visited v ();
          List.iter (dfs (v :: path)) (succ v)
        end
    in
    List.iter
      (fun (vd : Types.vrf_def) -> dfs [] vd.Types.vd_name)
      cfg.Types.dc_bgp.Types.bgp_vrfs;
    match !cycle with
    | None -> []
    | Some path ->
        [
          D.make ~code:"HOY022" ~device:dev
            ~obj:(Printf.sprintf "vrf %s" (List.hd path))
            "route-target import/export edges form a cycle: %s"
            (String.concat " -> " path);
        ]

(** [HOY023]: policy-less leak channels — a cross-VRF route-target export
    without an export policy, or a device that transits between two
    external ASes with neither import nor export policies (on a vendor
    whose profile accepts updates without one). *)
let leak_check dev (cfg : Types.t) : D.t list =
  let vrf_leaks =
    List.filter_map
      (fun ((a : Types.vrf_def), (b : Types.vrf_def)) ->
        if a.Types.vd_export_policy = None then
          Some
            (D.make ~code:"HOY023" ~device:dev
               ~obj:(Printf.sprintf "vrf %s" a.Types.vd_name)
               "routes leak from vrf %s into vrf %s with no export policy"
               a.Types.vd_name b.Types.vd_name)
        else None)
      (rt_edges cfg)
  in
  let vsb = Vsb.of_config cfg in
  let ebgp_transit =
    if not vsb.Vsb.missing_policy_accepts then []
    else
      let open_ext =
        List.filter
          (fun (nb : Types.neighbor) ->
            nb.Types.nb_remote_asn <> asn_of cfg
            && nb.Types.nb_import = None
            && nb.Types.nb_export = None)
          cfg.Types.dc_bgp.Types.bgp_neighbors
      in
      let asns =
        List.sort_uniq Int.compare
          (List.map (fun (nb : Types.neighbor) -> nb.Types.nb_remote_asn)
             open_ext)
      in
      if List.length asns >= 2 then
        [
          D.make ~code:"HOY023" ~device:dev ~obj:"bgp"
            "device transits between external ASes %s with neither import \
             nor export policies (vendor accepts policy-less eBGP updates)"
            (String.concat ", " (List.map string_of_int asns));
        ]
      else []
  in
  vrf_leaks @ ebgp_transit

(* ------------------------------------------------------------------ *)
(* Symbolic prefix regions and dead-term (union coverage) analysis      *)
(* ------------------------------------------------------------------ *)

(** A prefix region: every prefix under [rg_prefix] whose length lies in
    [rg_lo, rg_hi] — the denotation of one prefix-list entry. *)
type region = { rg_prefix : Prefix.t; rg_lo : int; rg_hi : int }

let entry_region (e : Types.prefix_entry) : region =
  let lo, hi = Types.prefix_entry_range e in
  { rg_prefix = e.Types.pe_prefix; rg_lo = lo; rg_hi = hi }

let region_subsumed (inner : region) (outer : region) =
  Prefix.subsumes outer.rg_prefix inner.rg_prefix
  && outer.rg_lo <= inner.rg_lo
  && inner.rg_hi <= outer.rg_hi

let regions_overlap (a : region) (b : region) =
  (Prefix.subsumes a.rg_prefix b.rg_prefix
  || Prefix.subsumes b.rg_prefix a.rg_prefix)
  && max a.rg_lo b.rg_lo <= min a.rg_hi b.rg_hi

(** Does the union of [regions] cover every prefix under [p] with length
    in [lo, hi]?  Recursive halving with a depth limit; an inconclusive
    descent returns [false] (not covered), which only suppresses
    findings — never fabricates one. *)
let covers (regions : region list) (p : Prefix.t) lo hi =
  let bits = Prefix.bits p in
  let contains_prefix q =
    List.exists
      (fun r ->
        Prefix.subsumes r.rg_prefix q
        && r.rg_lo <= Prefix.len q
        && Prefix.len q <= r.rg_hi)
      regions
  in
  let rec go p lo hi depth =
    let lo = max lo (Prefix.len p) in
    if lo > hi then true
    else if
      List.exists
        (fun r -> region_subsumed { rg_prefix = p; rg_lo = lo; rg_hi = hi } r)
        regions
    then true
    else if depth = 0 then false
    else if lo = Prefix.len p then
      (* [p] itself is in the target set: some single region must hold it *)
      contains_prefix p
      &&
      (hi <= Prefix.len p
      ||
      match Prefix.halves p with
      | None -> true (* host prefix: nothing longer exists *)
      | Some (a, b) -> go a (lo + 1) hi (depth - 1) && go b (lo + 1) hi (depth - 1))
    else
      match Prefix.halves p with
      | None -> true
      | Some (a, b) -> go a lo hi (depth - 1) && go b lo hi (depth - 1)
  in
  if hi > bits then false else go p lo hi 10

(** Guarantee regions of a policy node: prefixes the node *definitely*
    matches.  Only exact shapes qualify — at most one defined
    prefix-list clause of family [fam] (evaluated through its
    no-earlier-overlap permit entries) plus family clauses; any other
    clause voids the guarantee. *)
let guarantee_regions (cfg : Types.t) fam (node : Types.policy_node) :
    region list =
  let exception Inexact in
  try
    let pls =
      List.filter_map
        (fun (c : Types.match_clause) ->
          match c with
          | Types.Match_prefix_list name -> (
              match Types.find_prefix_list cfg name with
              | Some pl when pl.Types.pl_family = fam -> Some pl
              | _ -> raise Inexact)
          | Types.Match_family f ->
              if f = fam then None else raise Inexact
          | _ -> raise Inexact)
        node.Types.pn_matches
    in
    match pls with
    | [] ->
        (* no constraining clause: matches the whole family *)
        [ { rg_prefix = Prefix.default fam; rg_lo = 0;
            rg_hi = Ip.family_bits fam } ]
    | [ pl ] ->
        let rec firsts earlier = function
          | [] -> []
          | (e : Types.prefix_entry) :: rest ->
              let r = entry_region e in
              let guaranteed =
                e.Types.pe_action = Types.Permit
                && not (List.exists (regions_overlap r) earlier)
              in
              (if guaranteed then [ r ] else [])
              @ firsts (r :: earlier) rest
        in
        firsts [] pl.Types.pl_entries
    | _ -> [] (* several prefix lists: intersection, not exactly known *)
  with Inexact -> []

(** Over-approximate matchable regions of a node, per family: the
    permit-entry union of its first defined prefix-list clause of that
    family (deny entries only shrink the true set). *)
let matchable_regions (cfg : Types.t) fam (node : Types.policy_node) :
    region list option =
  let pl =
    List.find_map
      (fun (c : Types.match_clause) ->
        match c with
        | Types.Match_prefix_list name -> (
            match Types.find_prefix_list cfg name with
            | Some pl when pl.Types.pl_family = fam -> Some pl
            | _ -> None)
        | _ -> None)
      node.Types.pn_matches
  in
  Option.map
    (fun (pl : Types.prefix_list) ->
      List.filter_map
        (fun (e : Types.prefix_entry) ->
          if e.Types.pe_action = Types.Permit then Some (entry_region e)
          else None)
        pl.Types.pl_entries)
    pl

(** Whether a match on this node definitely terminates the policy walk
    (explicit or VSB-implied deny, or a permit without continue). *)
let node_terminates (vsb : Vsb.t) (node : Types.policy_node) =
  Policy.node_action vsb node = Types.Deny || not node.Types.pn_goto_next

(** [HOY024]: a node is dead when the union of earlier definitely-matching
    terminating nodes covers every prefix it could match.  Reports only
    genuine union coverage — cases a single earlier node decides are the
    pairwise shadowing check's ([HOY007]) territory and are skipped. *)
let dead_term_check dev (cfg : Types.t) : D.t list =
  let vsb = Vsb.of_config cfg in
  Smap.fold
    (fun pname (pol : Types.route_policy) acc ->
      let nodes = pol.Types.rp_nodes in
      let rec walk earlier acc = function
        | [] -> acc
        | (node : Types.policy_node) :: rest ->
            let dead fam =
              match matchable_regions cfg fam node with
              | None | Some [] -> false
              | Some matchable ->
                  let guards =
                    List.concat_map
                      (fun n ->
                        if node_terminates vsb n then
                          guarantee_regions cfg fam n
                        else [])
                      (List.rev earlier)
                  in
                  guards <> []
                  && (not
                        (List.exists
                           (fun g ->
                             List.for_all
                               (fun m -> region_subsumed m g)
                               matchable)
                           guards))
                  && List.for_all
                       (fun m ->
                         covers guards m.rg_prefix m.rg_lo m.rg_hi)
                       matchable
            in
            let acc =
              if earlier <> [] && (dead Ip.Ipv4 || dead Ip.Ipv6) then
                D.make ~code:"HOY024" ~device:dev
                  ~obj:
                    (Printf.sprintf "route-policy %s node %d" pname
                       node.Types.pn_seq)
                  "dead under all inputs: the union of earlier terminating \
                   nodes covers every prefix this node can match"
                :: acc
              else acc
            in
            walk (node :: earlier) acc rest
      in
      walk [] acc nodes)
    cfg.Types.dc_policies []

(* ------------------------------------------------------------------ *)
(* iBGP propagation gaps (route-reflection automaton)                   *)
(* ------------------------------------------------------------------ *)

let state_rank : Bgp.arrival -> int = function
  | Bgp.Origin -> 0
  | Bgp.From_ebgp -> 1
  | Bgp.From_client -> 2
  | Bgp.From_nonclient -> 3

(** May a route that arrived at the edge's source in [state] be
    advertised over it?  The simulator's {!Bgp.reflection_passes}. *)
let may_send (g : t) (state : Bgp.arrival) (e : session_edge) =
  let src_cfg = Smap.find e.se_src g.g_input.Lint.li_configs in
  Bgp.reflection_passes
    ~ebgp:(e.se_out.Types.nb_remote_asn <> asn_of src_cfg)
    ~to_client:e.se_out.Types.nb_rr_client state

let state_after (g : t) (e : session_edge) : Bgp.arrival =
  let dst_cfg = Smap.find e.se_dst g.g_input.Lint.li_configs in
  let receiver_ebgp = e.se_in.Types.nb_remote_asn <> asn_of dst_cfg in
  if receiver_ebgp then Bgp.From_ebgp
  else if e.se_in.Types.nb_rr_client then Bgp.From_client
  else Bgp.From_nonclient

(** [HOY025]: within each AS with at least two configured speakers and at
    least one reciprocal iBGP edge, every member's routes must be able to
    reach every other member under the reflection rules (policy-blind:
    policies express intent, the session graph expresses ability). *)
let ibgp_gap_check (g : t) : D.t list =
  let configs = g.g_input.Lint.li_configs in
  (* members per AS: configured BGP speakers the simulator instantiates *)
  let by_as = Hashtbl.create 8 in
  Smap.iter
    (fun dev (cfg : Types.t) ->
      if cfg.Types.dc_bgp.Types.bgp_neighbors <> [] && in_topo g dev then
        let asn = asn_of cfg in
        Hashtbl.replace by_as asn
          (dev :: Option.value (Hashtbl.find_opt by_as asn) ~default:[]))
    configs;
  let ibgp_edge asn (e : session_edge) =
    let sc = Smap.find e.se_src configs and dc = Smap.find e.se_dst configs in
    asn_of sc = asn && asn_of dc = asn
    && e.se_out.Types.nb_remote_asn = asn
    && e.se_in.Types.nb_remote_asn = asn
  in
  Hashtbl.fold
    (fun asn members acc ->
      let members = List.sort String.compare members in
      let edges = List.filter (ibgp_edge asn) g.g_edges in
      if List.length members < 2 || edges = [] then acc
      else
        let out = Hashtbl.create 16 in
        List.iter
          (fun e ->
            Hashtbl.replace out e.se_src
              (e :: Option.value (Hashtbl.find_opt out e.se_src) ~default:[]))
          edges;
        let reach origin =
          let seen = Hashtbl.create 16 in
          let rec bfs = function
            | [] -> ()
            | (dev, state) :: rest ->
                if Hashtbl.mem seen (dev, state_rank state) then bfs rest
                else begin
                  Hashtbl.replace seen (dev, state_rank state) ();
                  let next =
                    List.filter_map
                      (fun e ->
                        if may_send g state e then
                          Some (e.se_dst, state_after g e)
                        else None)
                      (Option.value (Hashtbl.find_opt out dev) ~default:[])
                  in
                  bfs (next @ rest)
                end
          in
          bfs [ (origin, Bgp.Origin) ];
          List.filter
            (fun m ->
              (not (String.equal m origin))
              && not
                   (List.exists
                      (fun s -> Hashtbl.mem seen (m, s))
                      [ 0; 1; 2; 3 ]))
            members
        in
        let gaps =
          List.filter_map
            (fun o ->
              match reach o with [] -> None | missed -> Some (o, missed))
            members
        in
        match gaps with
        | [] -> acc
        | (origin, missed) :: _ ->
            let preview =
              match missed with
              | a :: b :: _ :: _ -> Printf.sprintf "%s, %s, ..." a b
              | l -> String.concat ", " l
            in
            D.make ~code:"HOY025" ~device:origin ~obj:"bgp"
              "iBGP of AS %d cannot propagate: routes from %s never reach \
               %s (%d origin(s) with gaps among %d members)"
              asn origin preview (List.length gaps) (List.length members)
            :: acc)
    by_as []

(* ------------------------------------------------------------------ *)
(* Dangling static next hops                                            *)
(* ------------------------------------------------------------------ *)

(** Undirected topology reachability (the IGP's edge set). *)
let topo_reachable (input : Lint.input) ~src ~dst =
  match input.Lint.li_topo with
  | None -> true (* no topology: cannot decide, assume reachable *)
  | Some topo ->
      String.equal src dst
      ||
      let seen = Hashtbl.create 64 in
      let rec bfs = function
        | [] -> false
        | d :: _ when String.equal d dst -> true
        | d :: rest ->
            if Hashtbl.mem seen d then bfs rest
            else begin
              Hashtbl.replace seen d ();
              bfs (Topology.neighbors topo d @ rest)
            end
      in
      bfs [ src ]

(** [HOY026]: a static whose next hop sits on no connected subnet, under
    no other route of the device, and at no reachable managed address. *)
let static_check (g : t) dev (cfg : Types.t) : D.t list =
  List.filter_map
    (fun (st : Types.static_route) ->
      let iface_missing =
        match st.Types.st_iface with
        | None -> false
        | Some i ->
            not
              (List.exists
                 (fun (ifc : Types.iface_config) ->
                   String.equal ifc.Types.if_name i)
                 cfg.Types.dc_ifaces)
      in
      if iface_missing then
        Some
          (D.make ~code:"HOY026" ~device:dev
             ~obj:(Printf.sprintf "static %s" (Prefix.to_string st.Types.st_prefix))
             "static route exits via interface %s, which the device does \
              not define"
             (Option.get st.Types.st_iface))
      else
        match st.Types.st_nexthop with
        | None -> None
        | Some nh ->
            let on_subnet = Types.on_connected_subnet cfg nh in
            let via_other_static =
              List.exists
                (fun (o : Types.static_route) ->
                  (not (Prefix.equal o.Types.st_prefix st.Types.st_prefix))
                  && Prefix.mem nh o.Types.st_prefix)
                cfg.Types.dc_statics
            in
            let via_owner =
              match Hashtbl.find_opt g.g_owner nh with
              | Some o ->
                  (not (String.equal o dev))
                  && topo_reachable g.g_input ~src:dev ~dst:o
              | None -> false
            in
            if on_subnet || via_other_static || via_owner then None
            else
              Some
                (D.make ~code:"HOY026" ~device:dev
                   ~obj:
                     (Printf.sprintf "static %s"
                        (Prefix.to_string st.Types.st_prefix))
                   "next hop %s is on no connected subnet, under no other \
                    route, and at no reachable managed address"
                   (Ip.to_string nh)))
    cfg.Types.dc_statics

(* ------------------------------------------------------------------ *)
(* Graph build and whole-network checks                                 *)
(* ------------------------------------------------------------------ *)

let build ?tm (input : Lint.input) : t =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm "semantic.graph" (fun () ->
      let owner =
        Types.address_owners ?topo:input.Lint.li_topo input.Lint.li_configs
      in
      let edges, halves, session_diags = session_checks input owner in
      let isis_adj, isis_diags = isis_checks input in
      let out = Hashtbl.create 64 in
      List.iter
        (fun e ->
          Hashtbl.replace out e.se_src
            (e :: Option.value (Hashtbl.find_opt out e.se_src) ~default:[]))
        edges;
      let rt_count =
        Smap.fold
          (fun _ cfg acc -> acc + List.length (rt_edges cfg))
          input.Lint.li_configs 0
      in
      {
        g_input = input;
        g_owner = owner;
        g_edges = edges;
        g_out = out;
        g_diags = session_diags @ isis_diags;
        g_stats =
          {
            st_devices = Smap.cardinal input.Lint.li_configs;
            st_sessions = List.length edges;
            st_half_sessions = halves;
            st_isis_adjacencies = isis_adj;
            st_rt_edges = rt_count;
          };
      })

(** All graph-level and dataflow diagnostics of the semantic pass
    (HOY020–HOY028). *)
let check ?tm (g : t) : D.t list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm "semantic.checks" (fun () ->
      let per_device =
        Smap.fold
          (fun dev cfg acc ->
            acc
            @ redistribution_loop_check dev cfg
            @ leak_check dev cfg @ dead_term_check dev cfg
            @ static_check g dev cfg)
          g.g_input.Lint.li_configs []
      in
      let ds = g.g_diags @ per_device @ ibgp_gap_check g in
      Telemetry.count tm "hoyan_semantic_diags_total" (List.length ds);
      List.sort D.compare_diag ds)

(* ------------------------------------------------------------------ *)
(* Three-valued policy evaluation (prefix-only)                         *)
(* ------------------------------------------------------------------ *)

type tri = TYes | TNo | TUnknown

let node_tri cfg vsb (node : Types.policy_node) p : tri =
  List.fold_left
    (fun acc c ->
      match (acc, Policy.prefix_clause cfg vsb c p) with
      | TNo, _ | _, Some false -> TNo
      | TUnknown, _ | _, None -> TUnknown
      | TYes, Some true -> TYes)
    TYes node.Types.pn_matches

(** Can policy [name] of [cfg] pass a route for [p]?  [Policy.eval]'s
    walk, three-valued: clauses come from {!Policy.prefix_clause}
    ([TUnknown] for those the prefix does not decide), fallbacks and
    node actions from {!Policy.fallback_permits} and
    {!Policy.node_action}.  An undecided node explores both outcomes.
    Prefixes are never rewritten by set clauses, so the symbolic prefix
    is walk-invariant. *)
let tri_eval (cfg : Types.t) (name : string option) ~(ebgp : bool)
    (p : Prefix.t) : tri =
  let vsb = Vsb.of_config cfg in
  let fallback f = if Policy.fallback_permits vsb ~ebgp f then TYes else TNo in
  match name with
  | None -> fallback Policy.No_policy
  | Some n -> (
      match Types.find_policy cfg n with
      | None -> fallback Policy.Undefined_policy
      | Some pol ->
          let rec walk = function
            | [] -> fallback Policy.No_node_matched
            | (node : Types.policy_node) :: rest -> (
                let matched () =
                  if Policy.node_action vsb node = Types.Deny then TNo
                  else if node.Types.pn_goto_next then walk rest
                  else TYes
                in
                match node_tri cfg vsb node p with
                | TNo -> walk rest
                | TYes -> matched ()
                | TUnknown ->
                    let a = matched () and b = walk rest in
                    if a = b then a else TUnknown)
          in
          walk pol.Types.rp_nodes)

(* ------------------------------------------------------------------ *)
(* Origin sets and the propagation closure                              *)
(* ------------------------------------------------------------------ *)

(** Exact origins of [p]: devices where the simulator unconditionally
    installs a best route for exactly [p] — connected subnet and host
    routes, statics, [network] statements (origination is unconditional)
    and injected input routes.  Each origin carries a short witness. *)
let exact_origins (g : t) ~(input_routes : Route.t list) (p : Prefix.t) :
    (string * string) list =
  let configs = g.g_input.Lint.li_configs in
  let from_configs =
    Smap.fold
      (fun dev (cfg : Types.t) acc ->
        let direct =
          List.exists
            (fun i -> List.exists (Prefix.equal p) (Types.connected_prefixes i))
            cfg.Types.dc_ifaces
        in
        let static =
          List.exists
            (fun (s : Types.static_route) -> Prefix.equal s.Types.st_prefix p)
            cfg.Types.dc_statics
        in
        let network =
          in_topo g dev
          && List.exists
               (fun (np, _) -> Prefix.equal np p)
               cfg.Types.dc_bgp.Types.bgp_networks
        in
        if direct then (dev, "connected") :: acc
        else if static then (dev, "static") :: acc
        else if network then (dev, "network statement") :: acc
        else acc)
      configs []
  in
  let from_inputs =
    List.filter_map
      (fun (r : Route.t) ->
        if Prefix.equal r.Route.prefix p && in_topo g r.Route.device then
          Some (r.Route.device, "injected input route")
        else None)
      input_routes
  in
  List.sort_uniq compare (from_configs @ from_inputs)

(* Each topology device with its router id's host route: the prefixes
   IS-IS redistribution originates. *)
let loopback_prefixes (input : Lint.input) : (string * Prefix.t) list =
  match input.Lint.li_topo with
  | None -> []
  | Some topo ->
      List.map
        (fun (d : Topology.device) ->
          let bits = Ip.family_bits (Ip.family d.Topology.router_id) in
          (d.Topology.name, Prefix.make d.Topology.router_id bits))
        (Topology.devices topo)

let redistributes_isis (cfg : Types.t) =
  List.exists
    (fun (proto, _) -> proto = Route.Isis)
    cfg.Types.dc_bgp.Types.bgp_redistribute

let aggregate_prefixes (cfg : Types.t) =
  List.map
    (fun (ag : Types.aggregate) -> ag.Types.ag_prefix)
    cfg.Types.dc_bgp.Types.bgp_aggregates

(** Possible extra origins of [p] beyond the exact set: aggregates
    (conditional on a contributing route) and redistributed IS-IS
    loopbacks. *)
let over_origins (g : t) (p : Prefix.t) : string list =
  let loopbacks = loopback_prefixes g.g_input in
  Smap.fold
    (fun dev (cfg : Types.t) acc ->
      let aggregate =
        in_topo g dev && List.exists (Prefix.equal p) (aggregate_prefixes cfg)
      in
      let isis_loopback =
        in_topo g dev && redistributes_isis cfg
        && List.exists
             (fun (n, lp) ->
               (not (String.equal n dev)) && Prefix.equal lp p)
             loopbacks
      in
      if aggregate || isis_loopback then dev :: acc else acc)
    g.g_input.Lint.li_configs []

(* ------------------------------------------------------------------ *)
(* The prefix universe and the aggregate closure                        *)
(* ------------------------------------------------------------------ *)

(** The prefix universe of [input]: every prefix a BGP RIB row can
    carry.  Its sources are the origins {!exact_origins} and
    {!over_origins} list — the injected [input_routes], [network]
    statements, statics, connected subnets and host routes, aggregates
    and, when some device redistributes IS-IS, every topology router
    id's host route.  Propagation and leaking preserve prefixes, so the
    list is exhaustive.  Sorted, deduplicated. *)
let universe (input : Lint.input) ~(input_routes : Route.t list) :
    Prefix.t list =
  let configs = input.Lint.li_configs in
  let from_configs =
    Smap.fold
      (fun _ (cfg : Types.t) acc ->
        List.map fst cfg.Types.dc_bgp.Types.bgp_networks
        @ aggregate_prefixes cfg
        @ List.map
            (fun (s : Types.static_route) -> s.Types.st_prefix)
            cfg.Types.dc_statics
        @ List.concat_map Types.connected_prefixes cfg.Types.dc_ifaces
        @ acc)
      configs []
  in
  let loopbacks =
    if Smap.exists (fun _ cfg -> redistributes_isis cfg) configs then
      List.map snd (loopback_prefixes input)
    else []
  in
  List.sort_uniq Prefix.compare
    (List.map (fun (r : Route.t) -> r.Route.prefix) input_routes
    @ from_configs @ loopbacks)

(** [seeds] closed under the aggregates configured in [inputs], in both
    directions, over [universe]: a set holding a [universe] prefix
    strictly under an aggregate also holds the aggregate (its row is
    computed from its components), and a set holding an aggregate also
    holds every [universe] prefix strictly under it (a restricted
    fixpoint must see every component to originate it).  The BGP
    fixpoint couples prefixes only through aggregation, so a run
    restricted to a closed set converges exactly that set's rows
    (DESIGN.md §2.10).  Sorted, deduplicated. *)
let aggregate_closure (inputs : Lint.input list) ~(universe : Prefix.t list)
    (seeds : Prefix.t list) : Prefix.t list =
  let set = Prefix.Tbl.create 64 in
  List.iter (fun p -> Prefix.Tbl.replace set p ()) seeds;
  let mem = Prefix.Tbl.mem set in
  let add p =
    if mem p then false
    else begin
      Prefix.Tbl.replace set p ();
      true
    end
  in
  (* each aggregate with its candidate components, found once *)
  let groups =
    List.concat_map
      (fun (input : Lint.input) ->
        Smap.fold
          (fun _ cfg acc -> aggregate_prefixes cfg @ acc)
          input.Lint.li_configs [])
      inputs
    |> List.sort_uniq Prefix.compare
    |> List.map (fun ag ->
           ( ag,
             List.filter
               (fun u -> (not (Prefix.equal u ag)) && Prefix.subsumes ag u)
               universe ))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (ag, components) ->
        if mem ag then
          List.iter (fun u -> if add u then changed := true) components
        else if List.exists mem components then begin
          ignore (add ag);
          changed := true
        end)
      groups
  done;
  List.sort Prefix.compare (Prefix.Tbl.fold (fun p () acc -> p :: acc) set [])

(** [prefixes] closed under [input]'s aggregates over its own universe:
    the prefix set a property footprint reads, as both the
    failure-equivalence fingerprint and the k-failure fixpoint
    restriction see it. *)
let footprint_closure (input : Lint.input) ~(input_routes : Route.t list)
    (prefixes : Prefix.t list) : Prefix.t list =
  aggregate_closure [ input ] ~universe:(universe input ~input_routes) prefixes

(** The propagation closure of [p]: every device any simulator execution
    could deliver a route for [p] to.  Seeds are the exact and possible
    origins; edges are the reciprocal session edges, traversed under the
    reflection automaton, pruned only when the three-valued export or
    import evaluation definitively denies the prefix. *)
let closure ?tm ?exact (g : t) ~(input_routes : Route.t list) (p : Prefix.t) :
    (string, unit) Hashtbl.t =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm
    ?args:
      (if Telemetry.enabled tm then Some [ ("prefix", Prefix.to_string p) ]
       else None)
    "semantic.closure"
    (fun () ->
      let configs = g.g_input.Lint.li_configs in
      let members = Hashtbl.create 64 in
      let exact =
        match exact with
        | Some e -> e
        | None -> exact_origins g ~input_routes p
      in
      let seeds = List.map fst exact @ over_origins g p in
      List.iter (fun d -> Hashtbl.replace members d ()) seeds;
      let seen = Hashtbl.create 64 in
      let passes (e : session_edge) =
        let src_cfg = Smap.find e.se_src configs in
        let dst_cfg = Smap.find e.se_dst configs in
        let sender_ebgp = e.se_out.Types.nb_remote_asn <> asn_of src_cfg in
        let receiver_ebgp = e.se_in.Types.nb_remote_asn <> asn_of dst_cfg in
        tri_eval src_cfg e.se_out.Types.nb_export ~ebgp:sender_ebgp p <> TNo
        && tri_eval dst_cfg e.se_in.Types.nb_import ~ebgp:receiver_ebgp p
           <> TNo
      in
      let rec bfs = function
        | [] -> ()
        | (dev, state) :: rest ->
            if Hashtbl.mem seen (dev, state_rank state) then bfs rest
            else begin
              Hashtbl.replace seen (dev, state_rank state) ();
              Hashtbl.replace members dev ();
              let next =
                List.filter_map
                  (fun e ->
                    if
                      in_topo g e.se_dst && may_send g state e && passes e
                    then Some (e.se_dst, state_after g e)
                    else None)
                  (Option.value (Hashtbl.find_opt g.g_out dev) ~default:[])
              in
              bfs (next @ rest)
            end
      in
      bfs
        (List.filter_map
           (fun d -> if in_topo g d then Some (d, Bgp.Origin) else None)
           seeds);
      members)

(* ------------------------------------------------------------------ *)
(* The static intent pre-checker                                        *)
(* ------------------------------------------------------------------ *)

type verdict = Proved | Refuted of string | Needs_simulation

let verdict_to_string = function
  | Proved -> "proved"
  | Refuted _ -> "refuted"
  | Needs_simulation -> "needs-simulation"

(** A reachability intent in the analysis layer's own vocabulary (the
    core layer's intent type lives above this library; the core converts). *)
type reach_intent = {
  ri_name : string;
  ri_prefix : Prefix.t;
  ri_devices : string list;
  ri_expect : bool; (* true = route expected present on every device *)
}

(** Classify one reachability intent.

    Prove/refute only where the abstraction is exact: presence is proved
    solely from exact origins (unconditional installs); absence is
    proved — and expected presence refuted — solely from the
    over-approximate closure.  Everything else needs the simulator. *)
let precheck_verdict ~(exact : (string * string) list)
    ~(cl : (string, unit) Hashtbl.t) (ri : reach_intent) : verdict =
  let in_closure d = Hashtbl.mem cl d in
  let origin_of d = List.assoc_opt d exact in
  if ri.ri_expect then
    match List.find_opt (fun d -> not (in_closure d)) ri.ri_devices with
        | Some dev ->
            let origins =
              match List.map fst exact with
              | [] -> "no device originates it"
              | l ->
                  Printf.sprintf "origins: %s"
                    (String.concat ", "
                       (List.filteri (fun i _ -> i < 3) l))
            in
            Refuted
              (Printf.sprintf
                 "%s expects %s present on %s, but no propagation path in \
                  the control-plane graph can deliver it there (%s)"
                 ri.ri_name
                 (Prefix.to_string ri.ri_prefix)
                 dev origins)
        | None ->
            if List.for_all (fun d -> origin_of d <> None) ri.ri_devices
            then Proved
            else Needs_simulation
      else
        match
          List.find_opt (fun d -> origin_of d <> None) ri.ri_devices
        with
        | Some dev ->
            Refuted
              (Printf.sprintf
                 "%s expects %s absent on %s, but the device originates it \
                  unconditionally (%s)"
                 ri.ri_name
                 (Prefix.to_string ri.ri_prefix)
                 dev
                 (Option.get (origin_of dev)))
        | None ->
            if List.for_all (fun d -> not (in_closure d)) ri.ri_devices then
              Proved
            else Needs_simulation

let precheck ?tm (g : t) ~(input_routes : Route.t list) (ri : reach_intent) :
    verdict =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm
    ~args:[ ("intent", ri.ri_name) ]
    "semantic.precheck"
    (fun () ->
      let exact = exact_origins g ~input_routes ri.ri_prefix in
      precheck_verdict ~exact
        ~cl:(closure ~tm ~exact g ~input_routes ri.ri_prefix)
        ri)

(** Pre-check a whole batch of intents, memoizing the per-prefix origin
    sets and propagation closures: intents of one request routinely name
    the same prefixes, and the closure BFS is the expensive half of a
    verdict.  Returns the verdicts in input order. *)
let precheck_batch ?tm (g : t) ~(input_routes : Route.t list)
    (ris : reach_intent list) : (reach_intent * verdict) list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm
    ~args:[ ("intents", string_of_int (List.length ris)) ]
    "semantic.precheck"
    (fun () ->
      let memo cache compute p =
        let k = Prefix.to_string p in
        match Hashtbl.find_opt cache k with
        | Some v -> v
        | None ->
            let v = compute p in
            Hashtbl.replace cache k v;
            v
      in
      let exact_cache = Hashtbl.create 16 in
      let closure_cache = Hashtbl.create 16 in
      let exact_of = memo exact_cache (exact_origins g ~input_routes) in
      let closure_of =
        memo closure_cache (fun p ->
            closure ~tm ~exact:(exact_of p) g ~input_routes p)
      in
      List.map
        (fun ri ->
          ( ri,
            precheck_verdict ~exact:(exact_of ri.ri_prefix)
              ~cl:(closure_of ri.ri_prefix) ri ))
        ris)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let stats_to_string (s : stats) =
  Printf.sprintf
    "devices=%d sessions=%d half-sessions=%d isis-adjacencies=%d rt-edges=%d"
    s.st_devices s.st_sessions s.st_half_sessions s.st_isis_adjacencies
    s.st_rt_edges

(** Run the whole semantic pass: build the graph, run every HOY02x check,
    and — when [intents] are given — pre-check them, surfacing refuted
    ones as [HOY029]. *)
let analyze ?tm ?(input_routes = []) ?(intents = []) (input : Lint.input) :
    D.t list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let g = build ~tm input in
  let ds = check ~tm g in
  let intent_diags =
    List.filter_map
      (fun ri ->
        match precheck ~tm g ~input_routes ri with
        | Refuted why ->
            Some
              (D.make ~code:"HOY029"
                 ?device:(List.nth_opt ri.ri_devices 0)
                 ~obj:ri.ri_name "%s" why)
        | Proved | Needs_simulation -> None)
      intents
  in
  if Telemetry.enabled tm then
    Telemetry.event tm "semantic.done"
      [
        ("devices", Journal.I g.g_stats.st_devices);
        ("sessions", Journal.I g.g_stats.st_sessions);
        ("diagnostics", Journal.I (List.length ds + List.length intent_diags));
        ("intents", Journal.I (List.length intents));
      ];
  List.sort D.compare_diag (ds @ intent_diags)
