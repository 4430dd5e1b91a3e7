(** Automatic accuracy validation (§5.1).

    Each day Hoyan simulates the base network on the monitored inputs and
    compares: (a) every simulated route against the route monitoring
    system, falling back to live-network [show] for selected high-priority
    prefixes (the monitoring view is lossy by design); (b) the simulated
    traffic load of every link against the SNMP-monitored load, reporting
    links whose difference exceeds a bandwidth fraction. *)

open Hoyan_net
module Route_monitor = Hoyan_monitor.Route_monitor

type route_discrepancy =
  | Missing_in_monitor of Route.t (* simulated but not collected *)
  | Missing_in_sim of Route.t (* collected but not simulated *)
  | Attr_mismatch of Route.t * Route.t (* same key, different attributes *)

type load_discrepancy = {
  ld_link : string * string;
  ld_simulated : float;
  ld_monitored : float;
  ld_bandwidth : float;
}

type report = {
  rep_route_issues : route_discrepancy list;
  rep_load_issues : load_discrepancy list;
  rep_routes_checked : int;
  rep_links_checked : int;
}

let key (r : Route.t) = (r.Route.device, r.Route.vrf, r.Route.prefix)

(* The monitored view (BGP-agent mode) strips weight/preference/igp-cost
   and only exposes best routes; project a simulated route the same way
   before comparing attributes so the comparison is apples-to-apples. *)
let project_for_monitor (r : Route.t) =
  { (Route.with_weight r 0) with
    Route.preference = 0; igp_cost = 0; peer = None }

let same_attrs (sim : Route.t) (mon : Route.t) =
  Route.equal (project_for_monitor sim) (project_for_monitor mon)

(** Compare simulated routes with the monitoring system's collection.
    [live_check] is consulted for prefixes in [priority_prefixes]: for
    those, the full live RIB (show command) replaces the lossy monitored
    view, enabling ECMP and attribute validation. *)
let validate_routes ~(simulated : Rib.t) ~(monitored : Route.t list)
    ?(live : Route.t list = []) ?(priority_prefixes : Prefix.t list = []) () :
    route_discrepancy list * int =
  let is_priority p = List.exists (Prefix.equal p) priority_prefixes in
  (* index monitored and live views *)
  let mon_tbl = Hashtbl.create 1024 in
  List.iter
    (fun (r : Route.t) ->
      let k = key r in
      Hashtbl.replace mon_tbl k
        (r :: Option.value (Hashtbl.find_opt mon_tbl k) ~default:[]))
    monitored;
  let live_tbl = Hashtbl.create 1024 in
  List.iter
    (fun (r : Route.t) ->
      let k = key r in
      Hashtbl.replace live_tbl k
        (r :: Option.value (Hashtbl.find_opt live_tbl k) ~default:[]))
    live;
  let sim_bgp =
    List.filter (fun (r : Route.t) -> r.Route.proto = Route.Bgp)
      (Rib.to_list simulated)
  in
  let checked = ref 0 in
  let issues = ref [] in
  (* simulated -> monitored direction *)
  List.iter
    (fun (r : Route.t) ->
      incr checked;
      let k = key r in
      if is_priority r.Route.prefix && live <> [] then begin
        (* full-fidelity comparison against the live RIB *)
        let lives = Option.value (Hashtbl.find_opt live_tbl k) ~default:[] in
        if not (List.exists (fun l -> Route.equal l r) lives) then
          match lives with
          | [] -> issues := Missing_in_monitor r :: !issues
          | l :: _ -> issues := Attr_mismatch (r, l) :: !issues
      end
      else if r.Route.route_type = Route.Best then begin
        (* only best routes are visible to the BGP-agent collector *)
        let mons = Option.value (Hashtbl.find_opt mon_tbl k) ~default:[] in
        match mons with
        | [] -> issues := Missing_in_monitor r :: !issues
        | _ ->
            if not (List.exists (fun m -> same_attrs r m) mons) then
              issues := Attr_mismatch (r, List.hd mons) :: !issues
      end)
    sim_bgp;
  (* monitored -> simulated direction *)
  let sim_tbl = Hashtbl.create 1024 in
  List.iter
    (fun (r : Route.t) -> Hashtbl.replace sim_tbl (key r) ())
    sim_bgp;
  List.iter
    (fun (r : Route.t) ->
      if not (Hashtbl.mem sim_tbl (key r)) then
        issues := Missing_in_sim r :: !issues)
    monitored;
  (List.rev !issues, !checked)

(** Compare simulated and monitored link loads; report links whose gap
    exceeds [threshold] (fraction of the link bandwidth, default the
    paper's 10%). *)
let validate_loads ?(threshold = 0.10) ~(topo : Topology.t)
    ~(simulated : (string * string, float) Hashtbl.t)
    ~(monitored : (string * string, float) Hashtbl.t) () :
    load_discrepancy list * int =
  let links = Topology.edges topo in
  let issues = ref [] in
  List.iter
    (fun (e : Topology.edge) ->
      let k = (e.Topology.src, e.Topology.dst) in
      let sim = Option.value (Hashtbl.find_opt simulated k) ~default:0. in
      let mon = Option.value (Hashtbl.find_opt monitored k) ~default:0. in
      if Float.abs (sim -. mon) > threshold *. e.Topology.bandwidth then
        issues :=
          {
            ld_link = k;
            ld_simulated = sim;
            ld_monitored = mon;
            ld_bandwidth = e.Topology.bandwidth;
          }
          :: !issues)
    links;
  (List.rev !issues, List.length links)

(** The daily accuracy report. *)
let daily ~simulated_rib ~monitored_rib ?live ?priority_prefixes ~topo
    ~simulated_loads ~monitored_loads ?threshold () : report =
  let route_issues, routes_checked =
    validate_routes ~simulated:simulated_rib ~monitored:monitored_rib
      ?live ?priority_prefixes ()
  in
  let load_issues, links_checked =
    validate_loads ?threshold ~topo ~simulated:simulated_loads
      ~monitored:monitored_loads ()
  in
  {
    rep_route_issues = route_issues;
    rep_load_issues = load_issues;
    rep_routes_checked = routes_checked;
    rep_links_checked = links_checked;
  }

let is_accurate (r : report) =
  r.rep_route_issues = [] && r.rep_load_issues = []
