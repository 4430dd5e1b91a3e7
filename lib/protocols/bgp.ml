(** The BGP simulation engine.

    Hoyan's route simulation "runs a fixpoint algorithm simulating the
    message-passing process of BGP route propagation" (§3.1): in each
    round a router receives incoming routes, applies ingress policy,
    installs them in its RIB, and advertises the updated best route(s)
    after egress policy.  The fixpoint terminates when no router receives
    new routes (within ~20 rounds on the paper's WAN).

    This module implements that engine for a set of devices connected by
    BGP sessions, including: the full decision process, eBGP/iBGP
    propagation rules with route reflection, AS-loop prevention, add-path,
    route aggregation (with/without AS-set), redistribution from other
    protocols, per-device VRF leaking over route targets, and every
    Table-5 vendor-specific behaviour relevant to BGP. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Policy = Hoyan_config.Policy
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Session and device context                                          *)
(* ------------------------------------------------------------------ *)

type session = {
  s_local : string;
  s_peer : string;
  s_local_addr : Ip.t;
  s_peer_addr : Ip.t;
  s_ebgp : bool;
  s_import : string option; (* local ingress policy for routes from peer *)
  s_export : string option; (* local egress policy for routes to peer *)
  s_rr_client : bool; (* the peer is a route-reflector client of local *)
  s_next_hop_self : bool;
  s_add_paths : int; (* 0/1 = best only; n>1 = advertise up to n paths *)
  s_vrf : string;
}

(** Session liveness: does a configured peering from [local] to [peer]
    come up on [topo] under the IGP view [igp]?  A link-address peering
    ([direct]: the neighbor address sits on one of [local]'s connected
    subnets, {!Types.on_connected_subnet}) needs the physical link; a
    loopback peering needs an IGP path.  A removed peer has neither, so
    it never forms a session. *)
let session_live (topo : Topology.t) (igp : Isis.t) ~direct ~local ~peer =
  if direct then Option.is_some (Topology.edge_between topo local peer)
  else Isis.reachable igp ~src:local ~dst:peer

(** How a route arrived at the device about to re-advertise it — all the
    iBGP reflection rule reads. *)
type arrival = Origin | From_ebgp | From_client | From_nonclient

(** iBGP re-advertisement with route reflection (RFC 4456): a route
    learned over iBGP from a non-client crosses another iBGP session only
    towards a route-reflector client ([to_client]); eBGP sessions and
    every other arrival pass. *)
let reflection_passes ~ebgp ~to_client = function
  | From_nonclient -> ebgp || to_client
  | Origin | From_ebgp | From_client -> true

type device_ctx = {
  d_name : string;
  d_asn : int;
  d_router_id : Ip.t;
  d_cfg : Types.t;
  d_vsb : Vsb.t;
  d_sessions : session list; (* sessions where s_local = d_name *)
  d_igp_cost : Ip.t -> int option;
      (* IGP cost from this device to an address; [None] = unresolvable *)
  d_sr_reach : Ip.t -> bool; (* next hop reached via an SR tunnel? *)
  d_regex : string -> string -> bool; (* AS-path regex implementation *)
}

type network = device_ctx Smap.t

type input = {
  in_routes : Route.t list;
      (** Monitored input routes; [Route.device] is the injection point. *)
  in_local_tables : Route.t list Smap.t;
      (** Per device: connected/static/IS-IS routes available for
          redistribution (and included in the output RIBs). *)
}

type stats = {
  st_rounds : int;
  st_messages : int; (* session-level route-set deliveries *)
  st_selected : int; (* loc-rib entries at fixpoint *)
}

(* ------------------------------------------------------------------ *)
(* Decision process                                                    *)
(* ------------------------------------------------------------------ *)

(** Effective IGP cost of a route for the decision process.  The
    "IGP cost for SR" VSB (Figure 9's root cause): some vendors treat the
    cost as 0 when the next hop is reached through an SR tunnel. *)
let effective_igp_cost (ctx : device_ctx) (r : Route.t) : int option =
  match r.Route.nexthop with
  | None -> Some 0 (* locally originated *)
  | Some nh ->
      if ctx.d_vsb.Vsb.sr_igp_cost_zero && ctx.d_sr_reach nh then Some 0
      else ctx.d_igp_cost nh

let source_rank = function
  | Route.Local -> 0
  | Route.Redistributed -> 1
  | Route.Ebgp | Route.Ibgp -> 2

(** Compare two routes for the same prefix: negative when [a] is better.
    Steps: weight, local-pref, locally-originated, AS-path length, origin,
    MED, eBGP-over-iBGP, IGP cost (already computed into the routes),
    deterministic tie-break on the learning peer.

    Straight-line int compares: weight/local-pref/origin/MED come out of
    the packed attrs word, the AS-path length is cached on the path —
    no closure chain, no structural traversal. *)
let better_than (a : Route.t) (b : Route.t) : int =
  let c = Int.compare (Route.weight b) (Route.weight a) in
  if c <> 0 then c
  else
    let c = Int.compare (Route.local_pref b) (Route.local_pref a) in
    if c <> 0 then c
    else
      let c =
        Int.compare (source_rank a.Route.source) (source_rank b.Route.source)
      in
      if c <> 0 then c
      else
        let c =
          Int.compare
            (As_path.length a.Route.as_path)
            (As_path.length b.Route.as_path)
        in
        if c <> 0 then c
        else
          let c =
            Int.compare
              (Route.origin_rank (Route.origin a))
              (Route.origin_rank (Route.origin b))
          in
          if c <> 0 then c
          else
            let c = Int.compare (Route.med a) (Route.med b) in
            if c <> 0 then c
            else
              let rank (r : Route.t) =
                match r.Route.source with Route.Ebgp -> 0 | _ -> 1
              in
              let c = Int.compare (rank a) (rank b) in
              if c <> 0 then c
              else Int.compare a.Route.igp_cost b.Route.igp_cost

(** Tie-break beyond ECMP equality: deterministic order on the learning
    peer, standing in for the router-id/oldest-path rule. *)
let tie_break (a : Route.t) (b : Route.t) : int =
  let c = Option.compare String.compare a.Route.peer b.Route.peer in
  if c <> 0 then c
  else Option.compare Ip.compare a.Route.nexthop b.Route.nexthop

(** Select among candidate routes: returns the list with [route_type]
    marked (one [Best], equal-cost ones [Ecmp], the rest [Backup]).
    Routes whose next hop does not resolve are dropped. *)
let select (ctx : device_ctx) (candidates : Route.t list) : Route.t list =
  (* avoid copying a route record when the field already has the value:
     selection runs on every dirty (vrf, prefix) every round, and in the
     steady state most routes are re-selected unchanged *)
  let with_cost (r : Route.t) c =
    if r.Route.igp_cost = c then r else { r with Route.igp_cost = c }
  in
  let with_type (r : Route.t) ty =
    if r.Route.route_type = ty then r else { r with Route.route_type = ty }
  in
  let valid =
    List.filter_map
      (fun r ->
        match effective_igp_cost ctx r with
        | Some c -> Some (with_cost r c)
        | None -> None)
      candidates
  in
  match valid with
  | [] -> []
  | _ ->
      let sorted =
        List.sort
          (fun a b ->
            let c = better_than a b in
            if c <> 0 then c else tie_break a b)
          valid
      in
      let best = List.hd sorted in
      List.mapi
        (fun i r ->
          if i = 0 then with_type r Route.Best
          else if better_than r best = 0 then with_type r Route.Ecmp
          else with_type r Route.Backup)
        sorted

(* ------------------------------------------------------------------ *)
(* Simulation state                                                    *)
(* ------------------------------------------------------------------ *)

type dev_state = {
  (* adj-rib-in: (vrf, prefix, peer-key) -> post-import routes *)
  rib_in : (string * Prefix.t * string, Route.t list) Hashtbl.t;
  (* loc-rib: (vrf, prefix) -> selected routes (with route_type marked) *)
  loc_rib : (string * Prefix.t, Route.t list) Hashtbl.t;
  (* last advertisement per (peer, vrf, prefix), to deliver only changes *)
  adv_cache : (string * string * Prefix.t, Route.t list) Hashtbl.t;
  mutable dirty : (string * Prefix.t) list;
  dirty_set : (string * Prefix.t, unit) Hashtbl.t;
}

let new_dev_state () =
  {
    rib_in = Hashtbl.create 256;
    loc_rib = Hashtbl.create 256;
    adv_cache = Hashtbl.create 256;
    dirty = [];
    dirty_set = Hashtbl.create 64;
  }

let mark_dirty st key =
  if not (Hashtbl.mem st.dirty_set key) then begin
    Hashtbl.replace st.dirty_set key ();
    st.dirty <- key :: st.dirty
  end

let take_dirty st =
  let d = st.dirty in
  st.dirty <- [];
  Hashtbl.reset st.dirty_set;
  d

type sim = {
  net : network;
  states : (string, dev_state) Hashtbl.t;
  (* per device: (vrf, prefix) -> peer keys present, to avoid full scans *)
  peers_idx : (string, (string * Prefix.t, string list) Hashtbl.t) Hashtbl.t;
  mutable messages : int;
}

let state_of sim dev =
  match Hashtbl.find_opt sim.states dev with
  | Some st -> st
  | None ->
      let st = new_dev_state () in
      Hashtbl.replace sim.states dev st;
      st

let idx_of sim dev =
  match Hashtbl.find_opt sim.peers_idx dev with
  | Some i -> i
  | None ->
      let i = Hashtbl.create 256 in
      Hashtbl.replace sim.peers_idx dev i;
      i

(** Replace the adj-rib-in entry for (vrf, prefix) from [peer_key]. *)
let set_rib_in sim dev vrf prefix peer_key routes =
  let st = state_of sim dev in
  let idx = idx_of sim dev in
  let key = (vrf, prefix, peer_key) in
  let existing = Option.value (Hashtbl.find_opt st.rib_in key) ~default:[] in
  let changed =
    not (List.equal Route.equal existing routes)
  in
  if changed then begin
    if routes = [] then Hashtbl.remove st.rib_in key
    else Hashtbl.replace st.rib_in key routes;
    let ikey = (vrf, prefix) in
    let peers = Option.value (Hashtbl.find_opt idx ikey) ~default:[] in
    (* only write the index when membership actually changes (the common
       case on re-advertisement is an unchanged peer set) *)
    (if routes = [] then begin
       if List.mem peer_key peers then
         Hashtbl.replace idx ikey
           (List.filter (fun p -> not (String.equal p peer_key)) peers)
     end
     else if not (List.mem peer_key peers) then
       Hashtbl.replace idx ikey (peer_key :: peers));
    mark_dirty st ikey
  end;
  changed

let candidates sim dev vrf prefix =
  let st = state_of sim dev in
  let idx = idx_of sim dev in
  match Hashtbl.find_opt idx (vrf, prefix) with
  | None -> []
  | Some [] -> []
  | Some [ pk ] ->
      (* single-peer fast path (the overwhelmingly common case): return
         the stored list without copying *)
      Option.value (Hashtbl.find_opt st.rib_in (vrf, prefix, pk)) ~default:[]
  | Some peers ->
      List.concat_map
        (fun pk ->
          Option.value (Hashtbl.find_opt st.rib_in (vrf, prefix, pk)) ~default:[])
        peers

(* ------------------------------------------------------------------ *)
(* Ingress processing                                                  *)
(* ------------------------------------------------------------------ *)

(** Process routes arriving at [ctx] over [s] (the session as seen from
    the *sender*, so the receiver is [s.s_peer]).  Returns the post-import
    route list to install (possibly empty). *)
let process_ingress (receiver : device_ctx) (recv_session : session)
    (routes : Route.t list) : Route.t list =
  (* A device isolated via the dedicated knob has its sessions fully down;
     policy-based isolation only blocks its *exports* (the "device
     isolation" VSB). *)
  if
    receiver.d_cfg.Types.dc_isolated
    && not receiver.d_vsb.Vsb.isolation_by_policy
  then []
  else
  List.filter_map
    (fun (r : Route.t) ->
      (* AS loop prevention *)
      if recv_session.s_ebgp && As_path.contains_asn receiver.d_asn r.Route.as_path
      then None
      else
        let r =
          if recv_session.s_ebgp then
            { (Route.with_local_pref (Route.with_weight r 0) 100) with
              Route.source = Route.Ebgp;
              preference = receiver.d_vsb.Vsb.default_pref_ebgp }
          else
            { (Route.with_weight r 0) with
              Route.source = Route.Ibgp;
              preference = receiver.d_vsb.Vsb.default_pref_ibgp }
        in
        let r =
          { r with
            Route.device = receiver.d_name;
            vrf = recv_session.s_vrf;
            peer = Some recv_session.s_peer;
            proto = Route.Bgp }
        in
        let verdict =
          Policy.eval ~regex:receiver.d_regex ~ebgp:recv_session.s_ebgp
            receiver.d_cfg receiver.d_vsb recv_session.s_import r
        in
        match verdict.Policy.pv_action with
        | Types.Permit -> Some verdict.Policy.pv_route
        | Types.Deny -> None)
    routes

(* ------------------------------------------------------------------ *)
(* Egress processing                                                   *)
(* ------------------------------------------------------------------ *)

(** Is route [r] suppressed by a summary-only aggregate on the device? *)
let suppressed (ctx : device_ctx) (r : Route.t) =
  List.exists
    (fun (ag : Types.aggregate) ->
      ag.Types.ag_summary_only
      && String.equal ag.Types.ag_vrf r.Route.vrf
      && Prefix.subsumes ag.Types.ag_prefix r.Route.prefix
      && not (Prefix.equal ag.Types.ag_prefix r.Route.prefix))
    ctx.d_cfg.Types.dc_bgp.Types.bgp_aggregates

(** A redistributed host /32 (or /128) produced by a direct connection on
    a non-host interface — subject to the "sending /32 route to peer"
    VSB. *)
let is_host32_extra (r : Route.t) =
  r.Route.source = Route.Redistributed
  && Prefix.len r.Route.prefix = Ip.family_bits (Prefix.family r.Route.prefix)
  && Option.is_some r.Route.out_iface

(** Routes learned over a session from an RR client of [ctx]. *)
let learned_from_client (ctx : device_ctx) (r : Route.t) =
  match r.Route.peer with
  | None -> false
  | Some peer ->
      List.exists
        (fun s -> String.equal s.s_peer peer && s.s_rr_client)
        ctx.d_sessions

let arrival (ctx : device_ctx) (r : Route.t) : arrival =
  match r.Route.source with
  | Route.Ibgp ->
      if learned_from_client ctx r then From_client else From_nonclient
  | Route.Ebgp -> From_ebgp
  | Route.Local | Route.Redistributed -> Origin

(** Compute what [ctx] advertises over session [s] for the selected routes
    of one (vrf, prefix). *)
let export_routes (ctx : device_ctx) (s : session) (selected : Route.t list) :
    Route.t list =
  if ctx.d_cfg.Types.dc_isolated then []
  else
  (* which paths are candidates to advertise *)
  let advertisable =
    List.filter
      (fun (r : Route.t) ->
        match r.Route.route_type with
        | Route.Best -> true
        | Route.Ecmp | Route.Backup -> s.s_add_paths > 1)
      selected
  in
  let advertisable =
    if s.s_add_paths > 1 then
      (* keep the decision order; take the top n *)
      List.filteri (fun i _ -> i < s.s_add_paths) advertisable
    else advertisable
  in
  List.filter_map
    (fun (r : Route.t) ->
      (* split horizon: do not send back to the peer it came from *)
      if Option.equal String.equal r.Route.peer (Some s.s_peer) then None
      else if
        (* well-known communities (RFC 1997): NO_ADVERTISE blocks every
           advertisement; NO_EXPORT blocks eBGP ones *)
        Community.Set.mem Community.no_advertise r.Route.communities
        || (s.s_ebgp
           && Community.Set.mem Community.no_export r.Route.communities)
      then None
      else if suppressed ctx r then None
      else if is_host32_extra r && not ctx.d_vsb.Vsb.send_host32_to_peer then None
      else if
        not
          (reflection_passes ~ebgp:s.s_ebgp ~to_client:s.s_rr_client
             (arrival ctx r))
      then None
      else
        let verdict =
          Policy.eval ~regex:ctx.d_regex ~ebgp:s.s_ebgp ctx.d_cfg ctx.d_vsb
            s.s_export r
        in
        match verdict.Policy.pv_action with
        | Types.Deny -> None
        | Types.Permit ->
            let r = verdict.Policy.pv_route in
            let r =
              if s.s_ebgp then
                let add_asn =
                  if verdict.Policy.pv_aspath_overwritten then
                    ctx.d_vsb.Vsb.adding_own_asn
                  else true
                in
                let as_path =
                  if add_asn then As_path.prepend ctx.d_asn r.Route.as_path
                  else r.Route.as_path
                in
                Route.with_local_pref
                  { r with Route.as_path; nexthop = Some s.s_local_addr }
                  100
              else if s.s_next_hop_self then
                { r with Route.nexthop = Some s.s_local_addr }
              else r
            in
            Some { r with Route.route_type = Route.Best })
    advertisable

(* ------------------------------------------------------------------ *)
(* Local origination: networks, redistribution, aggregates, leaking    *)
(* ------------------------------------------------------------------ *)

(* [keep] is the incremental engine's prefix restriction (see
   {!Hoyan_sim.Incremental}): origination sites skip prefixes outside the
   dirty region, so a restricted run converges exactly the restriction of
   the full fixpoint (every per-prefix pipeline stage — ingress, export,
   selection, delivery — is prefix-local; the only cross-prefix coupling
   is aggregation, which the caller closes over before restricting). *)
let originate_networks sim keep (ctx : device_ctx) =
  List.iter
    (fun (p, vrf) ->
      if keep p then
        let r =
          Route.make ~device:ctx.d_name ~prefix:p ~vrf ~proto:Route.Bgp
            ~source:Route.Local ~origin:Route.Igp
            ~preference:ctx.d_vsb.Vsb.default_pref_ibgp ()
        in
        ignore (set_rib_in sim ctx.d_name vrf p "_local" [ r ]))
    ctx.d_cfg.Types.dc_bgp.Types.bgp_networks

let redistribute sim keep (ctx : device_ctx) (local_table : Route.t list) =
  List.iter
    (fun (proto, policy) ->
      let peer_key =
        Printf.sprintf "_redist:%s" (Route.proto_to_string proto)
      in
      let sources =
        List.filter
          (fun (r : Route.t) -> r.Route.proto = proto && keep r.Route.prefix)
          local_table
      in
      List.iter
        (fun (r : Route.t) ->
          (* the /32-redistribution VSB: skip host routes created by direct
             connections when the vendor does not redistribute them *)
          let host_extra =
            r.Route.proto = Route.Direct
            && Prefix.len r.Route.prefix
               = Ip.family_bits (Prefix.family r.Route.prefix)
            && Option.is_some r.Route.out_iface
          in
          if host_extra && not ctx.d_vsb.Vsb.redistribute_host32 then ()
          else
            let weight =
              Option.value ctx.d_vsb.Vsb.weight_after_redistribution ~default:0
            in
            let cand =
              { (Route.with_origin (Route.with_weight r weight)
                   Route.Incomplete)
                with
                Route.proto = Route.Bgp;
                source = Route.Redistributed;
                device = ctx.d_name;
                preference = ctx.d_vsb.Vsb.default_pref_ibgp }
            in
            let verdict =
              Policy.eval ~regex:ctx.d_regex ~ebgp:false ctx.d_cfg ctx.d_vsb
                policy cand
            in
            match verdict.Policy.pv_action with
            | Types.Permit ->
                let prev =
                  Option.value
                    (Hashtbl.find_opt (state_of sim ctx.d_name).rib_in
                       (cand.Route.vrf, cand.Route.prefix, peer_key))
                    ~default:[]
                in
                ignore
                  (set_rib_in sim ctx.d_name cand.Route.vrf cand.Route.prefix
                     peer_key
                     (verdict.Policy.pv_route
                      :: List.filter
                           (fun x ->
                             not (Route.equal x verdict.Policy.pv_route))
                           prev))
            | Types.Deny -> ())
        sources)
    ctx.d_cfg.Types.dc_bgp.Types.bgp_redistribute

(** Originate aggregates whose component routes are present; returns true
    when something changed (keeps the fixpoint going). *)
let originate_aggregates sim keep (ctx : device_ctx) : bool =
  let st = state_of sim ctx.d_name in
  List.fold_left
    (fun changed (ag : Types.aggregate) ->
      if not (keep ag.Types.ag_prefix) then changed
      else
      let components =
        Hashtbl.fold
          (fun (vrf, _) routes acc ->
            if not (String.equal vrf ag.Types.ag_vrf) then acc
            else
              List.filter
                (fun (r : Route.t) ->
                  (match r.Route.route_type with
                  | Route.Best | Route.Ecmp -> true
                  | Route.Backup -> false)
                  && Prefix.subsumes ag.Types.ag_prefix r.Route.prefix
                  && not (Prefix.equal ag.Types.ag_prefix r.Route.prefix))
                routes
              @ acc)
          st.loc_rib []
      in
      if components = [] then
        (* withdraw a previously originated aggregate if any *)
        set_rib_in sim ctx.d_name ag.Types.ag_vrf ag.Types.ag_prefix "_agg" []
        || changed
      else
        let paths = List.map (fun r -> r.Route.as_path) components in
        let as_path =
          if ag.Types.ag_as_set then As_path.aggregate_with_set paths
          else if ctx.d_vsb.Vsb.aggregate_common_prefix then
            As_path.of_asns (As_path.common_prefix paths)
          else As_path.empty
        in
        let communities =
          List.fold_left
            (fun acc (r : Route.t) ->
              Community.Set.union acc r.Route.communities)
            Community.Set.empty components
        in
        let r =
          Route.make ~device:ctx.d_name ~prefix:ag.Types.ag_prefix
            ~vrf:ag.Types.ag_vrf ~proto:Route.Bgp ~source:Route.Local
            ~origin:Route.Incomplete ~as_path ~communities
            ~preference:ctx.d_vsb.Vsb.default_pref_ibgp ()
        in
        set_rib_in sim ctx.d_name ag.Types.ag_vrf ag.Types.ag_prefix "_agg" [ r ]
        || changed)
    false ctx.d_cfg.Types.dc_bgp.Types.bgp_aggregates

(** Per-device VRF leaking over route targets.  Export RTs are stamped as
    communities; a VRF imports any local VPNv4 route whose RTs intersect
    its import set.  The convention import-RT "global" leaks global iBGP
    routes into the VRF (subject to the "VRF export policy" VSB);
    re-leaking a leaked route into a third VRF is the "re-leaking" VSB. *)
let leak_vrfs sim (ctx : device_ctx) : bool =
  let st = state_of sim ctx.d_name in
  let vrfs = ctx.d_cfg.Types.dc_bgp.Types.bgp_vrfs in
  if vrfs = [] then false
  else
    let parse_rts rts = List.filter_map Community.of_string rts in
    (* collect exported (VPNv4) routes: (origin vrf, rts, route) *)
    let exported = ref [] in
    List.iter
      (fun (vd : Types.vrf_def) ->
        let rts = parse_rts vd.Types.vd_export_rts in
        if rts <> [] then
          Hashtbl.iter
            (fun (vrf, _) routes ->
              if String.equal vrf vd.Types.vd_name then
                List.iter
                  (fun (r : Route.t) ->
                    match r.Route.route_type with
                    | Route.Backup -> ()
                    | Route.Best | Route.Ecmp ->
                        let was_leaked =
                          match r.Route.peer with
                          | Some p -> String.length p >= 6 && String.sub p 0 6 = "_leak:"
                          | None -> false
                        in
                        if was_leaked && not ctx.d_vsb.Vsb.releak_routes then ()
                        else
                          let verdict =
                            Policy.eval ~regex:ctx.d_regex ~ebgp:false
                              ctx.d_cfg ctx.d_vsb vd.Types.vd_export_policy r
                          in
                          (match verdict.Policy.pv_action with
                          | Types.Deny -> ()
                          | Types.Permit ->
                              let r = verdict.Policy.pv_route in
                              let r =
                                { r with
                                  Route.communities =
                                    Community.Set.union r.Route.communities
                                      (Community.Set.of_list rts) }
                              in
                              exported := (vd.Types.vd_name, rts, r) :: !exported))
                  routes)
            st.loc_rib)
      vrfs;
    (* global iBGP routes leaked into VPNv4 (consumed by VRFs importing
       the pseudo-RT "global") *)
    let global_routes =
      Hashtbl.fold
        (fun (vrf, _) routes acc ->
          if String.equal vrf Route.default_vrf then
            List.filter
              (fun (r : Route.t) ->
                (match r.Route.route_type with
                | Route.Best | Route.Ecmp -> true
                | Route.Backup -> false)
                && r.Route.source = Route.Ibgp)
              routes
            @ acc
          else acc)
        st.loc_rib []
    in
    (* import pass *)
    List.fold_left
      (fun changed (vd : Types.vrf_def) ->
        let import_rts = parse_rts vd.Types.vd_import_rts in
        let wants_global = List.mem "global" vd.Types.vd_import_rts in
        let imported =
          List.filter_map
            (fun (src_vrf, rts, (r : Route.t)) ->
              if String.equal src_vrf vd.Types.vd_name then None
              else if
                List.exists (fun rt -> List.exists (Community.equal rt) rts)
                  import_rts
              then
                Some
                  { r with
                    Route.vrf = vd.Types.vd_name;
                    peer = Some (Printf.sprintf "_leak:%s" src_vrf);
                    source = Route.Ibgp;
                    route_type = Route.Best }
              else None)
            !exported
        in
        let imported_global =
          if not wants_global then []
          else
            List.filter_map
              (fun (r : Route.t) ->
                let r =
                  if ctx.d_vsb.Vsb.vrf_export_on_global_leak then
                    let verdict =
                      Policy.eval ~regex:ctx.d_regex ~ebgp:false ctx.d_cfg
                        ctx.d_vsb vd.Types.vd_export_policy r
                    in
                    match verdict.Policy.pv_action with
                    | Types.Deny -> None
                    | Types.Permit -> Some verdict.Policy.pv_route
                  else Some r
                in
                Option.map
                  (fun (r : Route.t) ->
                    { r with
                      Route.vrf = vd.Types.vd_name;
                      peer = Some "_leak:global";
                      source = Route.Ibgp;
                      route_type = Route.Best })
                  r)
              global_routes
        in
        (* group imports per prefix and install *)
        let by_prefix = Hashtbl.create 16 in
        List.iter
          (fun (r : Route.t) ->
            let existing =
              Option.value (Hashtbl.find_opt by_prefix r.Route.prefix) ~default:[]
            in
            Hashtbl.replace by_prefix r.Route.prefix (r :: existing))
          (imported @ imported_global);
        Hashtbl.fold
          (fun prefix routes changed ->
            set_rib_in sim ctx.d_name vd.Types.vd_name prefix "_leak" routes
            || changed)
          by_prefix changed)
      false vrfs

(* ------------------------------------------------------------------ *)
(* The fixpoint                                                        *)
(* ------------------------------------------------------------------ *)

let max_rounds = 64

(** Run the fixpoint and return (the BGP rows of the global RIB, in no
    particular order — [Route_sim.run] canonicalises them — and stats).
    [originate=false] skips network statements and redistribution — used
    by distributed subtask workers, whose shared base RIB file carries
    those input-independent routes.  [only] restricts the fixpoint to a
    prefix set: input seeds, network statements, redistribution sources
    and aggregates outside it are never injected, so the run converges
    exactly the restriction of the unrestricted fixpoint {e provided} the
    set is closed under aggregate contribution (dirty component ⇒ its
    aggregates dirty, dirty aggregate ⇒ its candidate components dirty) —
    the incremental engine's contract, oracle-checked by its selfcheck.
    [tm] (default: the process-global telemetry handle) receives
    per-round journal events and decision-process counters. *)
let run ?tm ?(originate = true) ?only (net : network) (input : input) :
    Route.t list * stats =
  let keep = match only with None -> fun _ -> true | Some f -> f in
  let tm =
    match tm with
    | Some tm -> tm
    | None -> Hoyan_telemetry.Telemetry.get ()
  in
  let sim =
    { net; states = Hashtbl.create 64; peers_idx = Hashtbl.create 64;
      messages = 0 }
  in
  (* sessions indexed by (local, peer) to find the receiver's view *)
  let session_tbl = Hashtbl.create 256 in
  Smap.iter
    (fun _ ctx ->
      List.iter
        (fun s -> Hashtbl.replace session_tbl (s.s_local, s.s_peer, s.s_vrf) s)
        ctx.d_sessions)
    net;
  (* seed: input routes (already post-ingress at their injection device) *)
  let by_injection = Hashtbl.create 256 in
  List.iter
    (fun (r : Route.t) ->
      let key = (r.Route.device, r.Route.vrf, r.Route.prefix) in
      let existing =
        Option.value (Hashtbl.find_opt by_injection key) ~default:[]
      in
      Hashtbl.replace by_injection key (r :: existing))
    input.in_routes;
  Hashtbl.iter
    (fun (dev, vrf, prefix) routes ->
      if Smap.mem dev net && keep prefix then
        ignore (set_rib_in sim dev vrf prefix "_ext" routes))
    by_injection;
  (* seed: networks and redistribution *)
  if originate then
    Smap.iter
      (fun name ctx ->
        originate_networks sim keep ctx;
        let local_table =
          Option.value (Smap.find_opt name input.in_local_tables) ~default:[]
        in
        redistribute sim keep ctx local_table)
      net;
  (* fixpoint *)
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    continue_ := false;
    (* Phase 1: selection on dirty prefixes *)
    let work =
      Hashtbl.fold
        (fun dev st acc ->
          match take_dirty st with [] -> acc | d -> (dev, d) :: acc)
        sim.states []
    in
    if work <> [] then continue_ := true;
    (* one journal row per fixpoint round: the convergence delta is the
       number of devices with dirty prefixes still to settle *)
    if Hoyan_telemetry.Telemetry.enabled tm then begin
      let dirty_prefixes =
        List.fold_left (fun n (_, d) -> n + List.length d) 0 work
      in
      Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_decisions_total"
        dirty_prefixes;
      Hoyan_telemetry.Telemetry.event tm "bgp.round"
        [
          ("round", Hoyan_telemetry.Journal.I !rounds);
          ("dirty_devices", Hoyan_telemetry.Journal.I (List.length work));
          ("dirty_prefixes", Hoyan_telemetry.Journal.I dirty_prefixes);
          ("messages", Hoyan_telemetry.Journal.I sim.messages);
        ]
    end;
    let outgoing = ref [] in
    List.iter
      (fun (dev, dirty) ->
        match Smap.find_opt dev net with
        | None -> ()
        | Some ctx ->
            let st = state_of sim dev in
            List.iter
              (fun (vrf, prefix) ->
                let cands = candidates sim dev vrf prefix in
                let selected = select ctx cands in
                let before =
                  Option.value (Hashtbl.find_opt st.loc_rib (vrf, prefix))
                    ~default:[]
                in
                if not (List.equal Route.equal before selected) then begin
                  if selected = [] then Hashtbl.remove st.loc_rib (vrf, prefix)
                  else Hashtbl.replace st.loc_rib (vrf, prefix) selected;
                  (* queue advertisements for this prefix on all sessions *)
                  List.iter
                    (fun s ->
                      if String.equal s.s_vrf vrf then
                        outgoing := (ctx, s, vrf, prefix, selected) :: !outgoing)
                    ctx.d_sessions
                end)
              dirty;
            (* aggregates and VRF leaking may create new local routes *)
            if originate_aggregates sim keep ctx then continue_ := true;
            if leak_vrfs sim ctx then continue_ := true)
      work;
    (* Phase 2: deliver advertisements, batched per (sender, session).
       A changed device typically queues many prefixes towards the same
       peer; resolving the sender state, the receiver and its session
       view once per batch replaces three hashtable lookups per prefix.
       The adv-cache delta check, the rib-in install and the message
       count stay per prefix, so convergence and stats are unchanged. *)
    let batches = Hashtbl.create 64 in
    let batch_order = ref [] in
    List.iter
      (fun ((ctx, s, _, _, _) as msg) ->
        let key = (ctx.d_name, s.s_peer, s.s_vrf) in
        match Hashtbl.find_opt batches key with
        | Some b -> b := msg :: !b
        | None ->
            let b = ref [ msg ] in
            Hashtbl.add batches key b;
            batch_order := b :: !batch_order)
      (List.rev !outgoing);
    List.iter
      (fun batch ->
        match List.rev !batch with
        | [] -> ()
        | ((ctx, s, _, _, _) :: _ as msgs) ->
            let st = state_of sim ctx.d_name in
            (* the receiver processes ingress with its own session view *)
            let receiver_view =
              match Smap.find_opt s.s_peer net with
              | None -> None
              | Some receiver -> (
                  match
                    Hashtbl.find_opt session_tbl (s.s_peer, ctx.d_name, s.s_vrf)
                  with
                  | None -> None
                  | Some recv_session -> Some (receiver, recv_session))
            in
            List.iter
              (fun (ctx, s, vrf, prefix, selected) ->
                let adv = export_routes ctx s selected in
                let cache_key = (s.s_peer, vrf, prefix) in
                let prev =
                  Option.value
                    (Hashtbl.find_opt st.adv_cache cache_key)
                    ~default:[]
                in
                if not (List.equal Route.equal prev adv) then begin
                  Hashtbl.replace st.adv_cache cache_key adv;
                  sim.messages <- sim.messages + 1;
                  match receiver_view with
                  | None -> ()
                  | Some (receiver, recv_session) ->
                      let installed =
                        process_ingress receiver recv_session adv
                      in
                      ignore
                        (set_rib_in sim s.s_peer recv_session.s_vrf prefix
                           ctx.d_name installed)
                end)
              msgs)
      (List.rev !batch_order)
  done;
  (* collect the global RIB *)
  let routes = ref [] in
  let selected_count = ref 0 in
  Hashtbl.iter
    (fun _dev st ->
      Hashtbl.iter
        (fun _ rs ->
          selected_count := !selected_count + List.length rs;
          routes := List.rev_append rs !routes)
        st.loc_rib)
    sim.states;
  if Hoyan_telemetry.Telemetry.enabled tm then begin
    Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_rounds_total" !rounds;
    Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_messages_total" sim.messages;
    Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_selected_total"
      !selected_count
  end;
  ( !routes,
    { st_rounds = !rounds; st_messages = sim.messages;
      st_selected = !selected_count } )
