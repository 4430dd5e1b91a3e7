(** The vendor-neutral device configuration model.

    Both vendor dialect parsers ({!Parser_a}, {!Parser_b}) produce this
    model; the simulator consumes it together with the device's vendor
    semantic profile ({!Vsb.t}), which captures how the same construct is
    {e interpreted} differently across vendors. *)

open Hoyan_net

type action = Permit | Deny

let action_to_string = function Permit -> "permit" | Deny -> "deny"

(* ------------------------------------------------------------------ *)
(* Filters                                                             *)
(* ------------------------------------------------------------------ *)

type prefix_entry = {
  pe_seq : int;
  pe_action : action;
  pe_prefix : Prefix.t;
  pe_ge : int option; (* match prefixes with len >= ge inside pe_prefix *)
  pe_le : int option; (* ... and len <= le *)
}

type prefix_list = {
  pl_name : string;
  pl_family : Ip.family;
  pl_entries : prefix_entry list; (* ordered by sequence number *)
}

(** The effective length range [(lo, hi)] of the prefixes entry [e]
    matches inside [e.pe_prefix]: without ge/le exactly the prefix
    length; [ge] alone up to the family width; [le] alone from the
    prefix length.  Both bounds are clamped to what a prefix inside
    [e.pe_prefix] can have, so [lo > hi] exactly when the entry matches
    nothing. *)
let prefix_entry_range (e : prefix_entry) : int * int =
  let plen = Prefix.len e.pe_prefix and bits = Prefix.bits e.pe_prefix in
  match (e.pe_ge, e.pe_le) with
  | None, None -> (plen, plen)
  | Some ge, None -> (max ge plen, bits)
  | None, Some le -> (plen, min le bits)
  | Some ge, Some le -> (max ge plen, min le bits)

(** Does [p] match entry [e]?  [p] must be contained in [e.pe_prefix],
    with its length in {!prefix_entry_range}. *)
let prefix_entry_matches (e : prefix_entry) (p : Prefix.t) =
  Prefix.family p = Prefix.family e.pe_prefix
  && Prefix.subsumes e.pe_prefix p
  &&
  let lo, hi = prefix_entry_range e and len = Prefix.len p in
  lo <= len && len <= hi

(** First-match evaluation of a prefix list; [None] when no entry matches. *)
let prefix_list_eval (pl : prefix_list) (p : Prefix.t) : action option =
  List.find_opt (fun e -> prefix_entry_matches e p) pl.pl_entries
  |> Option.map (fun e -> e.pe_action)

type community_entry = {
  ce_seq : int;
  ce_action : action;
  ce_members : Community.t list; (* all must be present on the route *)
}

type community_list = { cl_name : string; cl_entries : community_entry list }

let community_list_eval (cl : community_list) (cs : Community.Set.t) :
    action option =
  List.find_opt
    (fun e -> List.for_all (fun c -> Community.Set.mem c cs) e.ce_members)
    cl.cl_entries
  |> Option.map (fun e -> e.ce_action)

type aspath_entry = { ae_seq : int; ae_action : action; ae_regex : string }

type aspath_filter = { af_name : string; af_entries : aspath_entry list }

(* ------------------------------------------------------------------ *)
(* Route policies (route-maps)                                         *)
(* ------------------------------------------------------------------ *)

type match_clause =
  | Match_prefix_list of string
  | Match_community_list of string
  | Match_aspath_filter of string
  | Match_nexthop of Prefix.t
  | Match_tag of int
  | Match_protocol of Route.proto
  | Match_family of Ip.family

type community_op = Comm_replace | Comm_add | Comm_remove

type set_clause =
  | Set_local_pref of int
  | Set_med of int
  | Set_weight of int
  | Set_preference of int
  | Set_communities of community_op * Community.t list
  | Set_nexthop of Ip.t
  | Set_aspath_prepend of int * int (* asn, count *)
  | Set_aspath_overwrite of int list (* replace AS path (vendor feature) *)
  | Set_tag of int

type policy_node = {
  pn_seq : int;
  pn_action : action option;
  (* [None]: the node has no explicit permit/deny — a VSB decides. *)
  pn_matches : match_clause list; (* conjunction *)
  pn_sets : set_clause list;
  pn_goto_next : bool; (* continue to next node after match (vendor B) *)
}

type route_policy = { rp_name : string; rp_nodes : policy_node list }

(* ------------------------------------------------------------------ *)
(* Protocol stanzas                                                    *)
(* ------------------------------------------------------------------ *)

type neighbor = {
  nb_addr : Ip.t;
  nb_remote_asn : int;
  nb_import : string option; (* route policy applied on ingress *)
  nb_export : string option;
  nb_rr_client : bool;
  nb_next_hop_self : bool;
  nb_add_paths : int; (* 0 = disabled; n = advertise up to n paths *)
  nb_vrf : string;
}

type aggregate = {
  ag_prefix : Prefix.t;
  ag_as_set : bool;
  ag_summary_only : bool;
  ag_vrf : string;
}

type vrf_def = {
  vd_name : string;
  vd_rd : string;
  vd_import_rts : string list;
  vd_export_rts : string list;
  vd_export_policy : string option;
}

type bgp_config = {
  bgp_asn : int;
  bgp_router_id : Ip.t option;
  bgp_neighbors : neighbor list;
  bgp_networks : (Prefix.t * string) list; (* prefix, vrf *)
  bgp_aggregates : aggregate list;
  bgp_redistribute : (Route.proto * string option) list; (* proto, policy *)
  bgp_vrfs : vrf_def list;
}

let empty_bgp =
  {
    bgp_asn = 0;
    bgp_router_id = None;
    bgp_neighbors = [];
    bgp_networks = [];
    bgp_aggregates = [];
    bgp_redistribute = [];
    bgp_vrfs = [];
  }

type isis_iface = { ii_name : string; ii_cost : int; ii_te : bool }

type isis_config = {
  isis_enabled : bool;
  isis_net : string; (* ISO NET identifier *)
  isis_ifaces : isis_iface list;
  isis_te : bool; (* IS-IS TE extensions (RFC 5305) enabled *)
  isis_default_cost : int option;
      (* device-level default cost; whether interfaces without an explicit
         cost inherit it is the "inheriting views" VSB *)
}

let empty_isis =
  { isis_enabled = false; isis_net = ""; isis_ifaces = []; isis_te = false;
    isis_default_cost = None }

type static_route = {
  st_prefix : Prefix.t;
  st_nexthop : Ip.t option;
  st_iface : string option;
  st_preference : int;
  st_tag : int;
  st_vrf : string;
}

type sr_policy = {
  sp_name : string;
  sp_endpoint : Ip.t; (* tunnel tail-end (router id / loopback) *)
  sp_color : int;
  sp_segments : string list; (* explicit path as device hops; [] = IGP path *)
  sp_preference : int;
}

type acl_entry = {
  ace_seq : int;
  ace_action : action;
  ace_src : Prefix.t option;
  ace_dst : Prefix.t option;
  ace_proto : int option;
  ace_dport : (int * int) option;
}

type acl = { acl_name : string; acl_entries : acl_entry list }

let acl_eval (a : acl) ~(src : Ip.t) ~(dst : Ip.t) ~(proto : int) ~(dport : int)
    : action option =
  List.find_opt
    (fun e ->
      (match e.ace_src with None -> true | Some p -> Prefix.mem src p)
      && (match e.ace_dst with None -> true | Some p -> Prefix.mem dst p)
      && (match e.ace_proto with None -> true | Some pr -> pr = proto)
      &&
      match e.ace_dport with
      | None -> true
      | Some (lo, hi) -> dport >= lo && dport <= hi)
    a.acl_entries
  |> Option.map (fun e -> e.ace_action)

type pbr_rule = {
  pbr_iface : string; (* ingress interface the rule is bound to *)
  pbr_acl : string; (* flows matching this ACL (permit) are steered *)
  pbr_nexthop : Ip.t;
}

type iface_config = {
  if_name : string;
  if_addr : Ip.t option; (* the interface's host address *)
  if_plen : int; (* subnet mask length *)
  if_bandwidth : float;
  if_acl_in : string option;
}

(** The bandwidth the parsers give an interface with no [bandwidth]
    line. *)
let default_bandwidth = 10e9

(** The connected subnet of an interface ([None] when unnumbered). *)
let iface_subnet (i : iface_config) =
  Option.map (fun a -> Prefix.make a i.if_plen) i.if_addr

(** The prefixes an interface address makes directly connected: its
    subnet, plus the host /32 (or /128) when the subnet is wider — the
    quirk behind two Table-5 VSBs. *)
let connected_prefixes (i : iface_config) : Prefix.t list =
  match i.if_addr with
  | None -> []
  | Some a ->
      let bits = Ip.family_bits (Ip.family a) in
      let subnet = Prefix.make a i.if_plen in
      if i.if_plen >= bits then [ subnet ] else [ subnet; Prefix.make a bits ]

(* ------------------------------------------------------------------ *)
(* Whole-device configuration                                          *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

type t = {
  dc_device : string;
  dc_vendor : string;
  dc_ifaces : iface_config list;
  dc_prefix_lists : prefix_list Smap.t;
  dc_community_lists : community_list Smap.t;
  dc_aspath_filters : aspath_filter Smap.t;
  dc_policies : route_policy Smap.t;
  dc_bgp : bgp_config;
  dc_isis : isis_config;
  dc_statics : static_route list;
  dc_sr_policies : sr_policy list;
  dc_acls : acl Smap.t;
  dc_pbr : pbr_rule list;
  dc_isolated : bool;
      (* maintenance isolation; whether it acts through policies or a
         dedicated knob is the "device isolation" VSB *)
}

let empty ~device ~vendor =
  {
    dc_device = device;
    dc_vendor = vendor;
    dc_ifaces = [];
    dc_prefix_lists = Smap.empty;
    dc_community_lists = Smap.empty;
    dc_aspath_filters = Smap.empty;
    dc_policies = Smap.empty;
    dc_bgp = empty_bgp;
    dc_isis = empty_isis;
    dc_statics = [];
    dc_sr_policies = [];
    dc_acls = Smap.empty;
    dc_pbr = [];
    dc_isolated = false;
  }

let find_prefix_list t name = Smap.find_opt name t.dc_prefix_lists
let find_community_list t name = Smap.find_opt name t.dc_community_lists
let find_aspath_filter t name = Smap.find_opt name t.dc_aspath_filters
let find_policy t name = Smap.find_opt name t.dc_policies
let find_acl t name = Smap.find_opt name t.dc_acls

let iface t name = List.find_opt (fun i -> String.equal i.if_name name) t.dc_ifaces

(** The first interface whose connected subnet holds [addr]. *)
let connected_iface t (addr : Ip.t) =
  List.find_opt
    (fun i ->
      match iface_subnet i with
      | Some subnet -> Prefix.mem addr subnet
      | None -> false)
    t.dc_ifaces

(** Is [addr] on one of the config's connected subnets?  A BGP neighbor
    there is a link-address peering; a next hop there resolves directly. *)
let on_connected_subnet t addr = Option.is_some (connected_iface t addr)

(** Address ownership: configured interface addresses first, then the
    topology's router ids (loopbacks) — later entries win on collision. *)
let address_owners ?topo (configs : t Smap.t) : (Ip.t, string) Hashtbl.t =
  let tbl = Hashtbl.create 1024 in
  Smap.iter
    (fun dev cfg ->
      List.iter
        (fun i ->
          match i.if_addr with
          | Some a -> Hashtbl.replace tbl a dev
          | None -> ())
        cfg.dc_ifaces)
    configs;
  Option.iter
    (fun topo ->
      List.iter
        (fun (d : Topology.device) ->
          Hashtbl.replace tbl d.Topology.router_id d.Topology.name)
        (Topology.devices topo))
    topo;
  tbl

(** Count configuration "lines" (for workload statistics; each router on
    the paper's WAN has thousands of lines). *)
let line_count t =
  List.length t.dc_ifaces
  + Smap.fold (fun _ pl n -> n + List.length pl.pl_entries) t.dc_prefix_lists 0
  + Smap.fold
      (fun _ cl n -> n + List.length cl.cl_entries)
      t.dc_community_lists 0
  + Smap.fold (fun _ af n -> n + List.length af.af_entries) t.dc_aspath_filters 0
  + Smap.fold
      (fun _ rp n ->
        n
        + List.fold_left
            (fun m node ->
              m + 1 + List.length node.pn_matches + List.length node.pn_sets)
            0 rp.rp_nodes)
      t.dc_policies 0
  + List.length t.dc_bgp.bgp_neighbors
  + List.length t.dc_bgp.bgp_networks
  + List.length t.dc_bgp.bgp_aggregates
  + List.length t.dc_statics
  + List.length t.dc_sr_policies
  + Smap.fold (fun _ a n -> n + List.length a.acl_entries) t.dc_acls 0
  + List.length t.dc_pbr
