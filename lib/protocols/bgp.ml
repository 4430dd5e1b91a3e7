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
    Table-5 vendor-specific behaviour relevant to BGP.

    Egress works like a router's update groups: a device's sessions in a
    VRF are grouped by what the export policy reads (policy name, eBGP
    or not), so a changed selection is evaluated once per route and
    group, and each session adds only its own steps ({!export_prefix}).
    Sessions are indexed when the run starts, each with its
    advertisement cache and its receiver's view (DESIGN.md §2.6). *)

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
    come up?  A link-address peering ([direct]: the neighbor address sits
    on one of [local]'s connected subnets, {!Types.on_connected_subnet})
    needs the physical link ([linked]); a loopback peering needs an IGP
    path ([reachable]).  A removed peer has neither, so it never forms a
    session.  The simulator supplies the topology and its {!Isis.t}, the
    what-if analysis a failure view's index-keyed predicates. *)
let session_live ~(linked : 'd -> 'd -> bool) ~(reachable : 'd -> 'd -> bool)
    ~direct ~(local : 'd) ~(peer : 'd) =
  if direct then linked local peer else reachable local peer

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

(* adj-rib-in of one (vrf, prefix): post-import routes per peer key,
   newest peer first *)
type rib_entry = {
  e_vrf : string;
  e_prefix : Prefix.t;
  mutable e_peers : (string * Route.t list) list;
  mutable e_dirty : bool; (* queued for selection next round *)
}

type dev_state = {
  rib_in : (string * Prefix.t, rib_entry) Hashtbl.t;
  (* loc-rib: (vrf, prefix) -> selected routes (with route_type marked) *)
  loc_rib : (string * Prefix.t, Route.t list) Hashtbl.t;
  mutable dirty : rib_entry list;
  mutable out : vrf_out list; (* the device's sessions, per VRF *)
}

(* A VRF's sessions in [d_sessions] order.  [o_groups] export groups
   partition them by what the export policy reads, (s_export, s_ebgp);
   [o_paths] is the most routes any of them advertises per prefix. *)
and vrf_out = {
  o_vrf : string;
  o_links : link array;
  o_groups : int;
  o_paths : int;
}

and link = {
  l_s : session;
  l_group : int;
  l_adv : (Prefix.t, Route.t list) Hashtbl.t;
      (* last advertisement per prefix, to deliver only changes; shared by
         sessions to the same (peer, vrf) *)
  l_recv : (device_ctx * session * dev_state) option;
      (* the receiver, its session view of the sender and its state *)
}

(* Buckets of a device's adj-RIB-in and loc-RIB ([rib]) and of a peer's
   advertisement table ([adv]): a full run's sizes, which a restricted
   run lowers to the number of prefixes it seeds ({!table_sizes}). *)
type sizes = { rib : int; adv : int }

let full_sizes = { rib = 256; adv = 64 }

let new_dev_state sz =
  { rib_in = Hashtbl.create sz.rib; loc_rib = Hashtbl.create sz.rib;
    dirty = []; out = [] }

let take_dirty st =
  let d = st.dirty in
  st.dirty <- [];
  List.iter (fun e -> e.e_dirty <- false) d;
  d

type sim = {
  devs : (device_ctx * dev_state) array; (* every device, in name order *)
  mutable messages : int;
  mutable export_evals : int; (* export-policy evaluations *)
}

let peer_routes e peer_key =
  match List.find_opt (fun (pk, _) -> String.equal pk peer_key) e.e_peers with
  | Some (_, routes) -> routes
  | None -> []

let rib_in_of st vrf prefix peer_key =
  match Hashtbl.find_opt st.rib_in (vrf, prefix) with
  | None -> []
  | Some e -> peer_routes e peer_key

(** Replace the adj-rib-in entry for (vrf, prefix) from [peer_key]. *)
let set_rib_in st vrf prefix peer_key routes =
  let entry = Hashtbl.find_opt st.rib_in (vrf, prefix) in
  let existing =
    match entry with None -> [] | Some e -> peer_routes e peer_key
  in
  let changed = not (List.equal Route.equal existing routes) in
  if changed then begin
    let e =
      match entry with
      | Some e -> e
      | None ->
          let e =
            { e_vrf = vrf; e_prefix = prefix; e_peers = []; e_dirty = false }
          in
          Hashtbl.add st.rib_in (vrf, prefix) e;
          e
    in
    let others (pk, _) = not (String.equal pk peer_key) in
    e.e_peers <-
      (if routes = [] then List.filter others e.e_peers
       else if existing = [] then (peer_key, routes) :: e.e_peers
       else
         List.map
           (fun ((pk, _) as p) -> if others p then p else (pk, routes))
           e.e_peers);
    if not e.e_dirty then begin
      e.e_dirty <- true;
      st.dirty <- e :: st.dirty
    end
  end;
  changed

let candidates e =
  match e.e_peers with
  | [] -> []
  | [ (_, routes) ] -> routes (* the common case: no copy *)
  | peers -> List.concat_map snd peers

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

(** Export one changed (vrf, prefix) of [ctx] over every session of
    [out], update-group style.  The checks that read only the route —
    well-known NO_ADVERTISE, summary-only suppression, the host-/32 VSB
    and the arrival — run once per route, and the export policy once per
    (route, export group).  Each session then applies what reads it: the
    add-paths cut, split horizon, NO_EXPORT, the reflection rule and the
    next-hop rewrite.  A session whose advertisement changed is counted
    as one message and handed to [deliver]. *)
let export_prefix sim (ctx : device_ctx) out prefix selected deliver =
  let routes = Array.of_list selected in
  (* [select] puts the one Best route first: best-only is the first route *)
  let k =
    if ctx.d_cfg.Types.dc_isolated then 0
    else min out.o_paths (Array.length routes)
  in
  let arrivals =
    Array.init k (fun i ->
        let r = routes.(i) in
        if
          Community.Set.mem Community.no_advertise r.Route.communities
          || suppressed ctx r
          || (is_host32_extra r && not ctx.d_vsb.Vsb.send_host32_to_peer)
        then None
        else Some (arrival ctx r))
  in
  (* the shared verdicts live as long as this prefix's export *)
  let verdicts = Array.make (out.o_groups * k) None in
  let verdict (s : session) g i =
    match verdicts.((g * k) + i) with
    | Some v -> v
    | None ->
        sim.export_evals <- sim.export_evals + 1;
        let v =
          let verdict =
            Policy.eval ~regex:ctx.d_regex ~ebgp:s.s_ebgp ctx.d_cfg ctx.d_vsb
              s.s_export routes.(i)
          in
          match verdict.Policy.pv_action with
          | Types.Deny -> None
          | Types.Permit ->
              let r = verdict.Policy.pv_route in
              let r =
                if s.s_ebgp then
                  let add_asn =
                    (not verdict.Policy.pv_aspath_overwritten)
                    || ctx.d_vsb.Vsb.adding_own_asn
                  in
                  let as_path =
                    if add_asn then As_path.prepend ctx.d_asn r.Route.as_path
                    else r.Route.as_path
                  in
                  Route.with_local_pref { r with Route.as_path } 100
                else r
              in
              Some { r with Route.route_type = Route.Best }
        in
        verdicts.((g * k) + i) <- Some v;
        v
  in
  Array.iter
    (fun l ->
      let s = l.l_s in
      let cut = min k (max 1 s.s_add_paths) in
      let rec adv i =
        if i >= cut then []
        else
          let r = routes.(i) in
          (* split horizon: do not send back to the peer it came from;
             NO_EXPORT (RFC 1997) blocks eBGP advertisements *)
          let passes =
            (match r.Route.peer with
            | Some p -> not (String.equal p s.s_peer)
            | None -> true)
            && (not
                  (s.s_ebgp
                  && Community.Set.mem Community.no_export r.Route.communities))
            &&
            match arrivals.(i) with
            | None -> false
            | Some a ->
                reflection_passes ~ebgp:s.s_ebgp ~to_client:s.s_rr_client a
          in
          match if passes then verdict s l.l_group i else None with
          | None -> adv (i + 1)
          | Some r ->
              let r =
                if s.s_ebgp || s.s_next_hop_self then
                  { r with Route.nexthop = Some s.s_local_addr }
                else r
              in
              r :: adv (i + 1)
      in
      let adv = adv 0 in
      let prev = Option.value (Hashtbl.find_opt l.l_adv prefix) ~default:[] in
      if not (List.equal Route.equal prev adv) then begin
        if adv = [] then Hashtbl.remove l.l_adv prefix
        else Hashtbl.replace l.l_adv prefix adv;
        sim.messages <- sim.messages + 1;
        deliver l prefix adv
      end)
    out.o_links

(* ------------------------------------------------------------------ *)
(* Local origination: networks, redistribution, aggregates, leaking    *)
(* ------------------------------------------------------------------ *)

(* [keep] is the incremental engine's prefix restriction (see
   {!Hoyan_sim.Incremental}): origination sites skip prefixes outside the
   dirty region, so a restricted run converges exactly the restriction of
   the full fixpoint (every per-prefix pipeline stage — ingress, export,
   selection, delivery — is prefix-local; the only cross-prefix coupling
   is aggregation, which the caller closes over before restricting). *)
let originate_networks st keep (ctx : device_ctx) =
  List.iter
    (fun (p, vrf) ->
      if keep p then
        let r =
          Route.make ~device:ctx.d_name ~prefix:p ~vrf ~proto:Route.Bgp
            ~source:Route.Local ~origin:Route.Igp
            ~preference:ctx.d_vsb.Vsb.default_pref_ibgp ()
        in
        ignore (set_rib_in st vrf p "_local" [ r ]))
    ctx.d_cfg.Types.dc_bgp.Types.bgp_networks

let redistribute st keep (ctx : device_ctx) (local_table : Route.t list) =
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
                  rib_in_of st cand.Route.vrf cand.Route.prefix peer_key
                in
                ignore
                  (set_rib_in st cand.Route.vrf cand.Route.prefix peer_key
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
let originate_aggregates st keep (ctx : device_ctx) : bool =
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
        set_rib_in st ag.Types.ag_vrf ag.Types.ag_prefix "_agg" []
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
        set_rib_in st ag.Types.ag_vrf ag.Types.ag_prefix "_agg" [ r ]
        || changed)
    false ctx.d_cfg.Types.dc_bgp.Types.bgp_aggregates

(** Per-device VRF leaking over route targets.  Export RTs are stamped as
    communities; a VRF imports any local VPNv4 route whose RTs intersect
    its import set.  The convention import-RT "global" leaks global iBGP
    routes into the VRF (subject to the "VRF export policy" VSB);
    re-leaking a leaked route into a third VRF is the "re-leaking" VSB. *)
let leak_vrfs st (ctx : device_ctx) : bool =
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
            set_rib_in st vd.Types.vd_name prefix "_leak" routes
            || changed)
          by_prefix changed)
      false vrfs

(* ------------------------------------------------------------------ *)
(* The fixpoint                                                        *)
(* ------------------------------------------------------------------ *)

let max_rounds = 64

(* Every device's state, with its sessions grouped per VRF into export
   groups and paired with their receiver views. *)
let create sizes (net : network) : dev_state Smap.t =
  let states = Smap.map (fun _ -> new_dev_state sizes) net in
  let memo tbl key mk =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = mk () in
        Hashtbl.add tbl key v;
        v
  in
  Smap.iter
    (fun name (ctx : device_ctx) ->
      (* the receiver processes ingress with its own view of the session:
         its last one towards [name] in the VRF *)
      let recv (s : session) =
        Option.bind (Smap.find_opt s.s_peer net) (fun receiver ->
            List.fold_left
              (fun acc (rs : session) ->
                if String.equal rs.s_peer name && String.equal rs.s_vrf s.s_vrf
                then Some (receiver, rs, Smap.find s.s_peer states)
                else acc)
              None receiver.d_sessions)
      in
      let out vrf =
        let sessions =
          List.filter (fun s -> String.equal s.s_vrf vrf) ctx.d_sessions
        in
        let groups = Hashtbl.create 4 and adv_tables = Hashtbl.create 16 in
        let link (s : session) =
          { l_s = s;
            l_group =
              memo groups (s.s_export, s.s_ebgp) (fun () ->
                  Hashtbl.length groups);
            l_adv =
              memo adv_tables s.s_peer (fun () -> Hashtbl.create sizes.adv);
            l_recv = recv s }
        in
        let links = Array.of_list (List.map link sessions) in
        { o_vrf = vrf; o_links = links; o_groups = Hashtbl.length groups;
          o_paths =
            List.fold_left (fun m s -> max m s.s_add_paths) 1 sessions }
      in
      (Smap.find name states).out <-
        List.map out
          (List.sort_uniq String.compare
             (List.map (fun s -> s.s_vrf) ctx.d_sessions)))
    net;
  states

(* The table sizes of a run restricted to [keep]: the distinct prefixes
   it seeds (kept inputs, network statements, aggregates and
   redistributed local rows), capped at {!full_sizes}.  A one-prefix
   what-if run then allocates small tables on every device instead of full
   ones. *)
let table_sizes ~keep (net : network) (input : input) : sizes =
  let seen = Prefix.Tbl.create 64 in
  let exception Full in
  let add p =
    if keep p && not (Prefix.Tbl.mem seen p) then begin
      Prefix.Tbl.add seen p ();
      if Prefix.Tbl.length seen >= full_sizes.rib then raise Full
    end
  in
  let seed () =
    List.iter (fun (r : Route.t) -> add r.Route.prefix) input.in_routes;
    Smap.iter
      (fun name (ctx : device_ctx) ->
        let bgp = ctx.d_cfg.Types.dc_bgp in
        List.iter (fun (p, _) -> add p) bgp.Types.bgp_networks;
        List.iter (fun (ag : Types.aggregate) -> add ag.Types.ag_prefix)
          bgp.Types.bgp_aggregates;
        if bgp.Types.bgp_redistribute <> [] then
          List.iter
            (fun (r : Route.t) ->
              if List.mem_assoc r.Route.proto bgp.Types.bgp_redistribute then
                add r.Route.prefix)
            (Option.value (Smap.find_opt name input.in_local_tables)
               ~default:[]))
      net
  in
  match seed () with
  | () ->
      let n = Prefix.Tbl.length seen in
      { rib = min full_sizes.rib n; adv = min full_sizes.adv n }
  | exception Full -> full_sizes

(* Each device's AS-path matcher behind a verdict memo keyed by (pattern,
   rendered path), one memo per distinct matcher: a filter's pattern then
   compiles and runs once per path it meets rather than once per policy
   evaluation.  The memo belongs to one run, so it lives no longer than
   the run and is only ever touched by the domain running it. *)
let memo_regex (net : network) : network =
  let memos = ref [] in
  let memoise (matcher : string -> string -> bool) =
    match List.assq_opt matcher !memos with
    | Some m -> m
    | None ->
        let by_pattern : (string, (string, bool) Hashtbl.t) Hashtbl.t =
          Hashtbl.create 16
        in
        let m pattern path =
          let verdicts =
            match Hashtbl.find_opt by_pattern pattern with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 256 in
                Hashtbl.add by_pattern pattern t;
                t
          in
          match Hashtbl.find_opt verdicts path with
          | Some v -> v
          | None ->
              let v = matcher pattern path in
              Hashtbl.add verdicts path v;
              v
        in
        memos := (matcher, m) :: !memos;
        m
  in
  Smap.map (fun ctx -> { ctx with d_regex = memoise ctx.d_regex }) net

(** Run the fixpoint and return (the BGP rows of the global RIB, in no
    particular order — [Route_sim.run] canonicalises them — and stats).
    Each round selects every dirty (vrf, prefix), exports a changed
    selection at once over the device's export groups ({!export_prefix}),
    then delivers the changed advertisements: the receiver's ingress
    policy and its adj-rib-in, which mark it dirty for the next round.
    [only] restricts the fixpoint to a prefix set: input seeds, network
    statements, redistribution sources and aggregates outside it are
    never injected, so the run converges exactly the restriction of the
    unrestricted fixpoint {e provided} the set is closed under aggregate
    contribution (dirty component ⇒ its aggregates dirty, dirty
    aggregate ⇒ its candidate components dirty): a set of whole shard
    keys, the planner's contract for domain shards, distributed subtasks
    and centralized chunks, and the incremental engine's, oracle-checked
    by its selfcheck.
    [tm] (default: the process-global telemetry handle) receives
    per-round journal events and decision-process counters; each
    [bgp.round] event names the run's [shard] (default 0), the prefix
    shard of {!Hoyan_sim.Route_sim.run} it converges.  All state, the
    AS-path verdict memo ({!memo_regex}) included, is local to the call,
    so domains may run it concurrently. *)
let run ?tm ?only ?(shard = 0) (net : network)
    (input : input) :
    Route.t list * stats =
  let keep = match only with None -> fun _ -> true | Some f -> f in
  let tm =
    match tm with
    | Some tm -> tm
    | None -> Hoyan_telemetry.Telemetry.get ()
  in
  let net = memo_regex net in
  let sizes =
    match only with
    | None -> full_sizes
    | Some keep -> table_sizes ~keep net input
  in
  let states = create sizes net in
  let sim =
    { devs =
        Array.of_list
          (List.map (fun (name, ctx) -> (ctx, Smap.find name states))
             (Smap.bindings net));
      messages = 0; export_evals = 0 }
  in
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
      match Smap.find_opt dev states with
      | Some st when keep prefix ->
          ignore (set_rib_in st vrf prefix "_ext" routes)
      | _ -> ())
    by_injection;
  (* seed: networks and redistribution *)
  Array.iter
    (fun ((ctx : device_ctx), st) ->
      originate_networks st keep ctx;
      let local_table =
        Option.value (Smap.find_opt ctx.d_name input.in_local_tables)
          ~default:[]
      in
      redistribute st keep ctx local_table)
    sim.devs;
  (* fixpoint *)
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < max_rounds do
    incr rounds;
    continue_ := false;
    let work =
      Array.fold_right
        (fun (ctx, st) acc ->
          match take_dirty st with [] -> acc | d -> (ctx, st, d) :: acc)
        sim.devs []
    in
    if work <> [] then continue_ := true;
    (* one journal row per fixpoint round: the convergence delta is the
       number of devices with dirty prefixes still to settle *)
    if Hoyan_telemetry.Telemetry.enabled tm then begin
      let dirty_prefixes =
        List.fold_left (fun n (_, _, d) -> n + List.length d) 0 work
      in
      Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_decisions_total"
        dirty_prefixes;
      Hoyan_telemetry.Telemetry.event tm "bgp.round"
        [
          ("shard", Hoyan_telemetry.Journal.I shard);
          ("round", Hoyan_telemetry.Journal.I !rounds);
          ("dirty_devices", Hoyan_telemetry.Journal.I (List.length work));
          ("dirty_prefixes", Hoyan_telemetry.Journal.I dirty_prefixes);
          ("messages", Hoyan_telemetry.Journal.I sim.messages);
          ("export_evals", Hoyan_telemetry.Journal.I sim.export_evals);
        ]
    end;
    (* Phase 1: selection on dirty prefixes, and export of every changed
       selection.  Export reads and writes only the sender (its loc-rib
       and per-session advertisement caches), so it runs before any of
       this round's deliveries without changing the round. *)
    let deliveries = ref [] in
    let deliver l prefix adv = deliveries := (l, prefix, adv) :: !deliveries in
    List.iter
      (fun ((ctx : device_ctx), st, dirty) ->
        List.iter
          (fun e ->
            let key = (e.e_vrf, e.e_prefix) in
            let selected = select ctx (candidates e) in
            let before =
              Option.value (Hashtbl.find_opt st.loc_rib key) ~default:[]
            in
            if not (List.equal Route.equal before selected) then begin
              if selected = [] then Hashtbl.remove st.loc_rib key
              else Hashtbl.replace st.loc_rib key selected;
              match
                List.find_opt (fun o -> String.equal o.o_vrf e.e_vrf) st.out
              with
              | Some out -> export_prefix sim ctx out e.e_prefix selected deliver
              | None -> ()
            end)
          dirty;
        (* aggregates and VRF leaking may create new local routes *)
        if originate_aggregates st keep ctx then continue_ := true;
        if leak_vrfs st ctx then continue_ := true)
      work;
    (* Phase 2: deliver the changed advertisements.  Each lands under its
       own (receiver, vrf, prefix, sender) key, so delivery order is that
       of phase 1 and no batching is needed. *)
    List.iter
      (fun (l, prefix, adv) ->
        match l.l_recv with
        | None -> ()
        | Some (receiver, recv_session, recv_state) ->
            ignore
              (set_rib_in recv_state recv_session.s_vrf prefix l.l_s.s_local
                 (process_ingress receiver recv_session adv)))
      (List.rev !deliveries)
  done;
  (* collect the global RIB *)
  let routes = ref [] in
  let selected_count = ref 0 in
  Array.iter
    (fun (_, st) ->
      Hashtbl.iter
        (fun _ rs ->
          selected_count := !selected_count + List.length rs;
          routes := List.rev_append rs !routes)
        st.loc_rib)
    sim.devs;
  if Hoyan_telemetry.Telemetry.enabled tm then begin
    Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_rounds_total" !rounds;
    Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_messages_total" sim.messages;
    Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_export_evals_total"
      sim.export_evals;
    Hoyan_telemetry.Telemetry.count tm "hoyan_bgp_selected_total"
      !selected_count
  end;
  ( !routes,
    { st_rounds = !rounds; st_messages = sim.messages;
      st_selected = !selected_count } )
