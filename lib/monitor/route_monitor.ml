(** The route monitoring system (§2.1).

    Two collection modes, matching the paper:

    - [Bgp_agent]: the system peers with every router, so a router only
      {e advertises} its routes — the collected view misses the ECMP
      routes (only the best route per prefix is advertised), may have a
      rewritten next hop (some vendors modify the next hop even on iBGP
      advertisements), and drops attributes that do not propagate via BGP
      (weight, local preference on the wire is kept here since iBGP
      carries it, but weight and admin preference are reset).
    - [Bmp]: the BGP Monitoring Protocol mirrors the full BGP RIB
      faithfully (the paper's ongoing deployment).

    Both modes are subject to the injected {!Faults.t}. *)

open Hoyan_net

type mode = Bgp_agent | Bmp

type t = { mode : mode; faults : Faults.t list }

let create ?(mode = Bgp_agent) ?(faults = []) () = { mode; faults }

let agent_down (t : t) dev =
  List.exists
    (function Faults.Agent_down d -> String.equal d dev | _ -> false)
    t.faults

(** What the monitoring system collects, given the live network's true
    (global) RIB. *)
let observe (t : t) (true_rib : Rib.t) : Route.t list =
  let visible =
    List.filter
      (fun (r : Route.t) ->
        (not (agent_down t r.Route.device)) && r.Route.proto = Route.Bgp)
      (Rib.to_list true_rib)
  in
  match t.mode with
  | Bmp -> visible
  | Bgp_agent ->
      (* only the best route of each (device, vrf, prefix) is advertised
         to the collector, and non-propagating attributes are lost *)
      visible
      |> List.filter (fun (r : Route.t) -> r.Route.route_type = Route.Best)
      |> List.map (fun (r : Route.t) ->
             {
               (Route.with_weight r 0) with
               Route.preference = 0;
               igp_cost = 0;
               (* the advertisement loses which peer it was learned from *)
               peer = None;
             })

(** The live network's [show] interface for selected prefixes (full
    fidelity, but strictly rate limited in production — the caller only
    queries high-priority prefixes). *)
let show_live (true_rib : Rib.t) ~(device : string)
    ~(prefix : Prefix.t) : Route.t list =
  List.filter
    (fun (r : Route.t) ->
      String.equal r.Route.device device && Prefix.equal r.Route.prefix prefix)
    (Rib.to_list true_rib)
