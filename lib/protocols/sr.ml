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

(** The tunnel of SR policy [sp] of [device] in the IGP view [igp], as
    its tail device and its device path [device .. tail]: the IGP path
    ({!Isis.some_path}) to the tail, or through each explicit waypoint in
    turn and on to the tail unless the last waypoint is it.  [None] when
    the endpoint belongs to no device ([endpoint_of]) or a leg is
    unreachable.  The BGP decision process reads only its success
    ({!reaches}), never the path. *)
let path (igp : Isis.t) ~(endpoint_of : Ip.t -> string option)
    ~(device : string) (sp : Types.sr_policy) : (string * string list) option
    =
  (* [rev] extended by the hops after [a] on the IGP path to [b] *)
  let leg a b rev =
    match (Isis.index igp a, Isis.index igp b) with
    | Some src, Some dst -> (
        match Isis.some_path igp ~src ~dst with
        | Some (_ :: hops) ->
            Some (List.rev_append (List.map (Isis.name igp) hops) rev)
        | _ -> None)
    | _ -> None
  in
  Option.bind (endpoint_of sp.Types.sp_endpoint) (fun tail ->
      let ws = sp.Types.sp_segments in
      let last, rev =
        List.fold_left
          (fun (cur, rev) w -> (w, Option.bind rev (leg cur w)))
          (device, Some [ device ]) ws
      in
      (if ws <> [] && String.equal last tail then rev
       else Option.bind rev (leg last tail))
      |> Option.map (fun rev -> (tail, List.rev rev)))

(** Resolve the SR policies of one device into tunnels: one per policy
    with a {!path}.  [endpoint_of] maps a loopback address to its
    device. *)
let resolve (igp : Isis.t) ~(device : string)
    ~(endpoint_of : Ip.t -> string option) (cfg : Types.t) : tunnel list =
  List.filter_map
    (fun (sp : Types.sr_policy) ->
      Option.map
        (fun (tail, tn_path) ->
          {
            tn_head = device;
            tn_endpoint = sp.Types.sp_endpoint;
            tn_tail = tail;
            tn_color = sp.Types.sp_color;
            tn_preference = sp.Types.sp_preference;
            tn_path;
          })
        (path igp ~endpoint_of ~device sp))
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
