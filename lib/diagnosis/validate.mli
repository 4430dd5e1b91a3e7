(** Automatic accuracy validation (paper §5.1).

    Each day Hoyan simulates the base network on the monitored inputs and
    compares: (a) every simulated route against the route monitoring
    system — falling back to live-network [show] output for selected
    high-priority prefixes, since the BGP-agent view is lossy by design —
    and (b) each link's simulated traffic load against the SNMP-monitored
    load, flagging links whose gap exceeds a bandwidth fraction. *)

open Hoyan_net

type route_discrepancy =
  | Missing_in_monitor of Route.t  (** simulated but not collected *)
  | Missing_in_sim of Route.t  (** collected but not simulated *)
  | Attr_mismatch of Route.t * Route.t  (** same key, different attributes *)

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

(** Compare simulated routes with the monitored collection.  For prefixes
    in [priority_prefixes], the full-fidelity [live] view (show-command
    output) replaces the lossy monitored one, enabling ECMP and
    attribute validation.  Returns (discrepancies, routes checked). *)
val validate_routes :
  simulated:Rib.t ->
  monitored:Route.t list ->
  ?live:Route.t list ->
  ?priority_prefixes:Prefix.t list ->
  unit ->
  route_discrepancy list * int

(** Compare link loads; [threshold] is the gap bound as a fraction of the
    link bandwidth (paper: 10%). *)
val validate_loads :
  ?threshold:float ->
  topo:Topology.t ->
  simulated:(string * string, float) Hashtbl.t ->
  monitored:(string * string, float) Hashtbl.t ->
  unit ->
  load_discrepancy list * int

(** The daily accuracy report over both route and load validation. *)
val daily :
  simulated_rib:Rib.t ->
  monitored_rib:Route.t list ->
  ?live:Route.t list ->
  ?priority_prefixes:Prefix.t list ->
  topo:Topology.t ->
  simulated_loads:(string * string, float) Hashtbl.t ->
  monitored_loads:(string * string, float) Hashtbl.t ->
  ?threshold:float ->
  unit ->
  report

val is_accurate : report -> bool
