(** Segment routing (SRv6) policies.

    An SR policy at a head-end device steers traffic towards an endpoint
    (identified by its loopback address) along either the IGP shortest
    path or an explicit segment list.  Two behaviours matter for the
    paper's experiments:

    - forwarding: flows whose BGP next hop is an SR-policy endpoint follow
      the tunnel path instead of hop-by-hop IGP forwarding;
    - route selection: some vendors treat the IGP cost of SR-reachable
      next hops as 0 in the BGP decision process (the "IGP cost for SR"
      VSB, root cause of the Figure-9 case). *)

open Hoyan_net
module Types = Hoyan_config.Types

type tunnel = {
  tn_head : string; (* head-end device *)
  tn_endpoint : Ip.t; (* tail-end loopback *)
  tn_tail : string; (* tail-end device *)
  tn_color : int;
  tn_preference : int;
  tn_path : string list; (* full device path, head .. tail *)
}

(** Does SR policy [sp] of [device] resolve into a tunnel?  Its endpoint
    must belong to a device ([endpoint_of]; the tail), and the path must
    exist: the IGP path to the tail, or each explicit waypoint reachable
    from the previous one, with the tail reachable from both the head and
    the last waypoint unless that waypoint is the tail.  [reachable a b]
    is the IGP's reachability.  The BGP decision process reads only this
    success ({!reaches}), never the path. *)
let resolves ~(reachable : string -> string -> bool)
    ~(endpoint_of : Ip.t -> string option) ~(device : string)
    (sp : Types.sr_policy) : bool =
  match endpoint_of sp.Types.sp_endpoint with
  | None -> false
  | Some tail -> (
      let rec chain cur = function
        | [] -> Some cur
        | w :: rest -> if reachable cur w then chain w rest else None
      in
      match sp.Types.sp_segments with
      | [] -> reachable device tail
      | ws -> (
          match chain device ws with
          | None -> false
          | Some last ->
              String.equal last tail
              || (reachable device tail && reachable last tail)))

(** Resolve the SR policies of one device into tunnels: one per policy
    that {!resolves}, along the IGP's [some_path] hops through each
    waypoint and on to the tail.  [endpoint_of] maps a loopback address
    to its device. *)
let resolve (igp : Isis.t) ~(device : string)
    ~(endpoint_of : Ip.t -> string option) (cfg : Types.t) : tunnel list =
  let reachable src dst = Isis.reachable igp ~src ~dst in
  (* the hops after [src] on the IGP path to [dst] (reachable) *)
  let leg src dst = List.tl (Option.get (Isis.some_path igp ~src ~dst)) in
  List.filter_map
    (fun (sp : Types.sr_policy) ->
      if not (resolves ~reachable ~endpoint_of ~device sp) then None
      else
        let tail = Option.get (endpoint_of sp.Types.sp_endpoint) in
        let last, rev_path =
          List.fold_left
            (fun (cur, acc) w -> (w, List.rev_append (leg cur w) acc))
            (device, [ device ]) sp.Types.sp_segments
        in
        let rev_path =
          if String.equal last tail then rev_path
          else List.rev_append (leg last tail) rev_path
        in
        Some
          {
            tn_head = device;
            tn_endpoint = sp.Types.sp_endpoint;
            tn_tail = tail;
            tn_color = sp.Types.sp_color;
            tn_preference = sp.Types.sp_preference;
            tn_path = List.rev rev_path;
          })
    cfg.Types.dc_sr_policies

(** Does a tunnel of [tunnels] terminate at next-hop address [nh]? *)
let reaches (tunnels : tunnel list) (nh : Ip.t) : bool =
  List.exists (fun t -> Ip.equal t.tn_endpoint nh) tunnels

(** The best (highest-preference) tunnel towards [nh], if any. *)
let tunnel_to (tunnels : tunnel list) (nh : Ip.t) : tunnel option =
  List.filter (fun t -> Ip.equal t.tn_endpoint nh) tunnels
  |> List.sort (fun a b -> Int.compare b.tn_preference a.tn_preference)
  |> function
  | [] -> None
  | t :: _ -> Some t
