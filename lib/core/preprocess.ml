(** The pre-processing services (§2.2, green boxes of Figure 2).

    Run periodically (daily in production): the network-model building
    service parses all configurations into the base model, and the input
    route/flow building services filter the monitored routes/flows into
    simulation inputs using a set of pre-defined rules, storing them for
    change-verification requests.

    The input-route rules include the paper's §5.3 cautionary tale: the
    rule "discard any route with an empty AS path" looked safe but
    wrongly dropped aggregate routes from the data centers, which carry no
    AS numbers.  [Discard_empty_as_path] reproduces that flawed rule for
    the Table-4 experiments; the fixed rule set does not use it. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Input route building                                                *)
(* ------------------------------------------------------------------ *)

type route_rule =
  | Discard_unknown_device (* not part of the model: cannot inject *)
  | Discard_vrf_without_external_peers
      (* the paper's example rule: routes from a VRF with no external BGP
         peers are internal artifacts, not inputs *)
  | Discard_martians (* never inject 0.0.0.0/8, 127/8, ... *)
  | Discard_empty_as_path
      (* the historically flawed rule (drops DC aggregates!) *)
  | Deduplicate

let default_rules =
  [
    Discard_unknown_device;
    Discard_vrf_without_external_peers;
    Discard_martians;
    Deduplicate;
  ]

let martians =
  List.map Prefix.of_string_exn [ "0.0.0.0/8"; "127.0.0.0/8"; "169.254.0.0/16" ]

let vrf_has_external_peers (model : Model.t) (dev : string) (vrf : string) =
  if String.equal vrf Route.default_vrf then true
  else
    match Model.config model dev with
    | None -> false
    | Some cfg ->
        List.exists
          (fun (nb : Types.neighbor) ->
            String.equal nb.Types.nb_vrf vrf
            && nb.Types.nb_remote_asn <> cfg.Types.dc_bgp.Types.bgp_asn)
          cfg.Types.dc_bgp.Types.bgp_neighbors

let apply_route_rule (model : Model.t) (rule : route_rule)
    (routes : Route.t list) : Route.t list =
  match rule with
  | Discard_unknown_device ->
      List.filter
        (fun (r : Route.t) -> Option.is_some (Model.config model r.Route.device))
        routes
  | Discard_vrf_without_external_peers ->
      List.filter
        (fun (r : Route.t) ->
          vrf_has_external_peers model r.Route.device r.Route.vrf)
        routes
  | Discard_martians ->
      List.filter
        (fun (r : Route.t) ->
          not (List.exists (fun m -> Prefix.subsumes m r.Route.prefix) martians))
        routes
  | Discard_empty_as_path ->
      List.filter (fun (r : Route.t) -> not (As_path.is_empty r.Route.as_path)) routes
  | Deduplicate ->
      let seen = Hashtbl.create 1024 in
      List.filter
        (fun (r : Route.t) ->
          let k = Route.to_string r in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        routes

(** The input route building service. *)
let build_input_routes ?(rules = default_rules) (model : Model.t)
    (monitored : Route.t list) : Route.t list =
  List.fold_left (fun rs rule -> apply_route_rule model rule rs) monitored rules

(* ------------------------------------------------------------------ *)
(* Input flow building                                                 *)
(* ------------------------------------------------------------------ *)

type flow_rule = Discard_unknown_ingress | Discard_zero_volume | Merge_same_key

let default_flow_rules =
  [ Discard_unknown_ingress; Discard_zero_volume; Merge_same_key ]

let apply_flow_rule (model : Model.t) rule (flows : Flow.t list) : Flow.t list
    =
  match rule with
  | Discard_unknown_ingress ->
      List.filter
        (fun (f : Flow.t) -> Option.is_some (Model.config model f.Flow.ingress))
        flows
  | Discard_zero_volume ->
      List.filter (fun (f : Flow.t) -> f.Flow.volume > 0.) flows
  | Merge_same_key ->
      (* merge records of the same 5-tuple + ingress, summing volume *)
      let tbl = Hashtbl.create 1024 in
      let order = ref [] in
      List.iter
        (fun (f : Flow.t) ->
          let k =
            (f.Flow.src, f.Flow.dst, f.Flow.sport, f.Flow.dport, f.Flow.ip_proto,
             f.Flow.ingress)
          in
          match Hashtbl.find_opt tbl k with
          | Some (g : Flow.t) ->
              Hashtbl.replace tbl k
                { g with Flow.volume = g.Flow.volume +. f.Flow.volume }
          | None ->
              Hashtbl.add tbl k f;
              order := k :: !order)
        flows;
      List.rev_map (Hashtbl.find tbl) !order

let build_input_flows ?(rules = default_flow_rules) (model : Model.t)
    (monitored : Flow.t list) : Flow.t list =
  List.fold_left (fun fs rule -> apply_flow_rule model rule fs) monitored rules

(* ------------------------------------------------------------------ *)
(* The pre-computed base                                               *)
(* ------------------------------------------------------------------ *)

(** Everything the change-verification phase reuses: the base network
    model, the filtered inputs, and (lazily) the base simulation results
    the intents compare against. *)
type base = {
  b_model : Model.t;
  b_input_routes : Route.t list;
  b_flows : Flow.t list;
  b_rib : Rib.t Lazy.t;
  b_traffic : Traffic_sim.result Lazy.t;
}

let prepare ?(route_rules = default_rules) ?(flow_rules = default_flow_rules)
    (model : Model.t) ~(monitored_routes : Route.t list)
    ~(monitored_flows : Flow.t list) : base =
  let input_routes = build_input_routes ~rules:route_rules model monitored_routes in
  let flows = build_input_flows ~rules:flow_rules model monitored_flows in
  let rib =
    lazy ((Route_sim.run model ~input_routes ()).Route_sim.rib)
  in
  let traffic =
    lazy (Traffic_sim.run model ~rib:(Lazy.force rib) ~flows ())
  in
  { b_model = model; b_input_routes = input_routes; b_flows = flows;
    b_rib = rib; b_traffic = traffic }
