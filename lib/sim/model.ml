(** The compiled network model.

    The pre-processing "network model building service" (§2.2) parses all
    routers' configurations into Hoyan's internal model once a day; change
    verification then updates it incrementally.  This module compiles a
    topology plus per-device configurations into everything the simulators
    need: address ownership, BGP sessions, the IGP view, SR tunnels and
    the per-device local tables (connected + static routes). *)

open Hoyan_net
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Printer = Hoyan_config.Printer
module Isis = Hoyan_proto.Isis
module Sr = Hoyan_proto.Sr
module Bgp = Hoyan_proto.Bgp
module Cp = Hoyan_config.Change_plan
module Smap = Map.Make (String)

type t = {
  topo : Topology.t;
  configs : Types.t Smap.t;
  igp : Isis.t;
  owner_tbl : (Ip.t, string) Hashtbl.t;
  net : Bgp.network;
  local_tables : Route.t list Smap.t;
  tunnels : Hoyan_proto.Sr.tunnel list Smap.t;
  te_aware : bool;
  regex : string -> string -> bool;
}

let owner (t : t) (addr : Ip.t) : string option =
  Hashtbl.find_opt t.owner_tbl addr

let config (t : t) dev = Smap.find_opt dev t.configs

let local_rib (t : t) : Rib.t =
  Rib.of_routes (Smap.fold (fun _ rs acc -> rs @ acc) t.local_tables [])

(* ------------------------------------------------------------------ *)
(* Local tables: connected and static routes                           *)
(* ------------------------------------------------------------------ *)

(** Direct (connected) routes of a device: one per
    {!Types.connected_prefixes} of each interface. *)
let direct_routes (dev : string) (cfg : Types.t) : Route.t list =
  List.concat_map
    (fun (i : Types.iface_config) ->
      List.map
        (fun prefix ->
          Route.make ~device:dev ~prefix ~proto:Route.Direct ~preference:0
            ~out_iface:i.Types.if_name ~source:Route.Local ())
        (Types.connected_prefixes i))
    cfg.Types.dc_ifaces

let static_routes (dev : string) (cfg : Types.t) : Route.t list =
  List.map
    (fun (s : Types.static_route) ->
      Route.make ~device:dev ~prefix:s.Types.st_prefix ~vrf:s.Types.st_vrf
        ~proto:Route.Static ?nexthop:s.Types.st_nexthop
        ?out_iface:s.Types.st_iface ~preference:s.Types.st_preference
        ~tag:s.Types.st_tag ~source:Route.Local ())
    cfg.Types.dc_statics

(* The IGP cost from the device of index [src] to the device [dst],
   [None] when unreachable or either end is outside the view. *)
let igp_cost_to (igp : Isis.t) src dst =
  match (src, Isis.index igp dst) with
  | Some src, Some dst ->
      let c = Isis.cost igp ~src ~dst in
      if c = max_int then None else Some c
  | _ -> None

let redistributes_isis (cfg : Types.t) =
  List.mem_assoc Route.Isis cfg.Types.dc_bgp.Types.bgp_redistribute

(** IS-IS loopback routes (only materialized when the device redistributes
    IS-IS into BGP; the IGP view's distance rows serve all other
    purposes). *)
let isis_routes (igp : Isis.t) (topo : Topology.t) (dev : string)
    (cfg : Types.t) : Route.t list =
  if not (redistributes_isis cfg) then []
  else
    let src = Isis.index igp dev in
    List.filter_map
      (fun (d : Topology.device) ->
        if String.equal d.Topology.name dev then None
        else
          match igp_cost_to igp src d.Topology.name with
          | None -> None
          | Some c ->
              let bits = Ip.family_bits (Ip.family d.Topology.router_id) in
              Some
                (Route.make ~device:dev
                   ~prefix:(Prefix.make d.Topology.router_id bits)
                   ~proto:Route.Isis ~preference:15 ~igp_cost:c
                   ~source:Route.Local ()))
      (Topology.devices topo)

(* ------------------------------------------------------------------ *)
(* Session resolution                                                  *)
(* ------------------------------------------------------------------ *)

(** The local address a device uses towards a given peer address: the
    interface address sharing the peer's subnet, falling back to the
    router id (loopback peering). *)
let local_addr_towards (cfg : Types.t) (router_id : Ip.t) (peer : Ip.t) : Ip.t =
  match Types.connected_iface cfg peer with
  | Some { Types.if_addr = Some a; _ } -> a
  | _ -> router_id

(* The topology's router id, else the configured one. *)
let router_id_of (topo : Topology.t) (dev : string) (cfg : Types.t) : Ip.t =
  match Topology.device topo dev with
  | Some d -> d.Topology.router_id
  | None ->
      Option.value cfg.Types.dc_bgp.Types.bgp_router_id ~default:(Ip.V4 0)

let sessions_of (topo : Topology.t) (igp : Isis.t)
    (owner_tbl : (Ip.t, string) Hashtbl.t) (dev : string) (cfg : Types.t) :
    Bgp.session list =
  let router_id = router_id_of topo dev cfg in
  let linked a b = Option.is_some (Topology.edge_between topo a b) in
  let reachable a b = Option.is_some (igp_cost_to igp (Isis.index igp a) b) in
  List.filter_map
    (fun (nb : Types.neighbor) ->
      match Hashtbl.find_opt owner_tbl nb.Types.nb_addr with
      | None -> None (* external neighbor not in the model: input routes
                        stand in for whatever it would send *)
      | Some peer_dev ->
          if String.equal peer_dev dev then None
          else if
            not
              (Bgp.session_live ~linked ~reachable ~local:dev ~peer:peer_dev
                 ~direct:(Types.on_connected_subnet cfg nb.Types.nb_addr))
          then None
          else
            let ebgp = nb.Types.nb_remote_asn <> cfg.Types.dc_bgp.Types.bgp_asn in
            Some
              {
                Bgp.s_local = dev;
                s_peer = peer_dev;
                s_local_addr =
                  local_addr_towards cfg router_id nb.Types.nb_addr;
                s_peer_addr = nb.Types.nb_addr;
                s_ebgp = ebgp;
                s_import = nb.Types.nb_import;
                s_export = nb.Types.nb_export;
                s_rr_client = nb.Types.nb_rr_client;
                s_next_hop_self = nb.Types.nb_next_hop_self;
                s_add_paths = nb.Types.nb_add_paths;
                s_vrf = nb.Types.nb_vrf;
              })
    cfg.Types.dc_bgp.Types.bgp_neighbors

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

(* What a model compiles from its configs and devices alone, not from
   its links or IGP: address ownership and, per device, its VSB and its
   direct and static routes. *)
type fixed = {
  fx_owner : (Ip.t, string) Hashtbl.t;
  fx_vsb : string -> Types.t -> Vsb.t;
  fx_routes : string -> Types.t -> Route.t list;
}

let fixed_of (topo : Topology.t) (configs : Types.t Smap.t) : fixed =
  { fx_owner = Types.address_owners ~topo configs;
    fx_vsb = (fun _ cfg -> Vsb.of_config cfg);
    fx_routes = (fun dev cfg -> direct_routes dev cfg @ static_routes dev cfg) }

(* The fixed parts of [t] itself, for a network with [t]'s configs and
   devices: its owner table, its contexts' VSBs and its local tables
   without the IS-IS rows. *)
let fixed_of_model (t : t) : fixed =
  { fx_owner = t.owner_tbl;
    fx_vsb = (fun dev _ -> (Smap.find dev t.net).Bgp.d_vsb);
    fx_routes =
      (fun dev cfg ->
        let rows = Smap.find dev t.local_tables in
        if redistributes_isis cfg then
          List.filter (fun (r : Route.t) -> r.Route.proto <> Route.Isis) rows
        else rows) }

(* Compile [configs] over [topo] with the IGP view [igp] of that network
   (computed, or a failure mask of the base's view) and its [fixed]
   parts. *)
let compile ~te_aware ~regex ~(igp : Isis.t) (fx : fixed) (topo : Topology.t)
    (configs : Types.t Smap.t) : t =
  let owner_tbl = fx.fx_owner in
  (* local tables *)
  let local_tables =
    Smap.mapi
      (fun dev cfg ->
        match isis_routes igp topo dev cfg with
        | [] -> fx.fx_routes dev cfg
        | isis -> fx.fx_routes dev cfg @ isis)
      configs
  in
  (* SR tunnels *)
  let endpoint_of addr = Hashtbl.find_opt owner_tbl addr in
  let tunnels =
    Smap.mapi
      (fun dev cfg -> Sr.resolve igp ~device:dev ~endpoint_of cfg)
      configs
  in
  (* device contexts *)
  let net =
    Smap.mapi
      (fun dev (cfg : Types.t) ->
        let router_id = router_id_of topo dev cfg in
        let vsb = fx.fx_vsb dev cfg in
        let dev_tunnels = Option.value (Smap.find_opt dev tunnels) ~default:[] in
        let statics = Option.value (Smap.find_opt dev local_tables) ~default:[] in
        let src = Isis.index igp dev in
        let igp_cost (addr : Ip.t) : int option =
          if Types.on_connected_subnet cfg addr then Some 0
          else
            match Hashtbl.find_opt owner_tbl addr with
            | Some owner_dev ->
                if String.equal owner_dev dev then Some 0
                else igp_cost_to igp src owner_dev
            | None ->
                (* resolvable through a static route? *)
                if
                  List.exists
                    (fun (r : Route.t) ->
                      r.Route.proto = Route.Static
                      && Prefix.mem addr r.Route.prefix)
                    statics
                then Some 1
                else None
        in
        {
          Bgp.d_name = dev;
          d_asn = cfg.Types.dc_bgp.Types.bgp_asn;
          d_router_id = router_id;
          d_cfg = cfg;
          d_vsb = vsb;
          d_sessions = sessions_of topo igp owner_tbl dev cfg;
          d_igp_cost = igp_cost;
          d_sr_reach = (fun nh -> Sr.reaches dev_tunnels nh);
          d_regex = regex;
        })
      configs
  in
  { topo; configs; igp; owner_tbl; net; local_tables; tunnels; te_aware;
    regex }

let build ?(te_aware = true)
    ?(regex = fun p s -> Hoyan_regex.Regex.matches_str p s)
    (topo : Topology.t) (configs : Types.t Smap.t) : t =
  compile ~te_aware ~regex ~igp:(Isis.compute ~te_aware topo configs)
    (fixed_of topo configs) topo configs

let patch (t : t) ?(topo = t.topo) (configs : Types.t Smap.t) : t =
  build ~te_aware:t.te_aware ~regex:t.regex topo configs

let fail (t : t) (ops : Cp.topo_op list) : t =
  let ix = Isis.index t.igp in
  let links =
    List.filter_map
      (function
        | Cp.Remove_link { ra; rb } ->
            Option.bind (ix ra) (fun a -> Option.map (fun b -> (a, b)) (ix rb))
        | Cp.Remove_device _ -> None
        | Cp.Add_device _ | Cp.Add_link _ ->
            invalid_arg "Model.fail: not a failure")
      ops
  and devices =
    List.filter_map (function Cp.Remove_device d -> ix d | _ -> None) ops
  in
  let ap = Cp.apply ~topo:t.topo t.configs (Cp.make "failures" ~topo_ops:ops) in
  let topo = Option.get ap.Cp.ap_topo in
  (* Without a device removal the configs and devices are [t]'s: only the
     IGP-dependent parts are compiled again. *)
  let fx =
    if List.exists (function Cp.Remove_device _ -> true | _ -> false) ops
    then fixed_of topo ap.Cp.ap_configs
    else fixed_of_model t
  in
  compile ~te_aware:t.te_aware ~regex:t.regex
    ~igp:(Isis.fail t.igp ~links ~devices)
    fx topo ap.Cp.ap_configs

let apply_change_plan (t : t) (cp : Cp.t) : t * Cp.apply_report list =
  let ap = Cp.apply ~topo:t.topo t.configs cp in
  ( patch t ?topo:ap.Cp.ap_topo ap.Cp.ap_configs,
    List.map Cp.step_report ap.Cp.ap_steps )

let total_config_lines (t : t) =
  Smap.fold (fun _ cfg n -> n + Types.line_count cfg) t.configs 0
