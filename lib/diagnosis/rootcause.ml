(** Root-cause analysis of inaccurate traffic simulation (§5.2).

    The 5-step hybrid workflow, automated as far as the paper's is:

    1. identify links with a large simulated-vs-real load difference;
    2. identify a large-volume flow traversing such a link;
    3. build the flow's forwarding paths with Hoyan;
    4. compare each router's forwarding behaviour on that flow, starting
       from the router attached to the divergent link;
    5. hand the first divergent router — with its simulated and real
       routes side by side — to the expert (here: emit a structured
       finding, including heuristic hints such as the ECMP-count and
       IGP-cost differences that exposed the Figure-9 SR VSB). *)

open Hoyan_net
module Traffic_sim = Hoyan_sim.Traffic_sim
module Model = Hoyan_sim.Model

type hop_behaviour = {
  hb_device : string;
  hb_sim_nexthops : string list; (* next-hop rendering, simulated RIB *)
  hb_real_nexthops : string list; (* ... real RIB *)
  hb_sim_igp_costs : int list;
  hb_real_igp_costs : int list;
}

type finding = {
  f_link : string * string;
  f_flow : Flow.t;
  f_paths : Traffic_sim.path list; (* simulated forwarding paths *)
  f_divergent : hop_behaviour option; (* first router behaving differently *)
  f_hints : string list;
}

let nexthops_of (routes : Route.t list) =
  routes
  |> List.filter Route.selected
  |> List.map Route.nexthop_string
  |> List.sort_uniq String.compare

let igp_costs_of (routes : Route.t list) =
  routes
  |> List.filter Route.selected
  |> List.map (fun (r : Route.t) -> r.Route.igp_cost)
  |> List.sort_uniq Int.compare

(** Step 4: compare the forwarding behaviour of a device on the flow,
    between a simulated and a real (live ground truth) RIB. *)
let compare_hop ~(sim_rib : Rib.t) ~(real_rib : Rib.t)
    (dev : string) (f : Flow.t) : hop_behaviour =
  let fib_routes rib =
    let fibs = Traffic_sim.build_fibs rib in
    match Traffic_sim.fib_lookup fibs dev f.Flow.dst with
    | Some (_, routes) -> routes
    | None -> []
  in
  let sim = fib_routes sim_rib and real = fib_routes real_rib in
  {
    hb_device = dev;
    hb_sim_nexthops = nexthops_of sim;
    hb_real_nexthops = nexthops_of real;
    hb_sim_igp_costs = igp_costs_of sim;
    hb_real_igp_costs = igp_costs_of real;
  }

let behaviour_differs (hb : hop_behaviour) =
  not (List.equal String.equal hb.hb_sim_nexthops hb.hb_real_nexthops)

let hints_of (hb : hop_behaviour) : string list =
  let hints = ref [] in
  let n_sim = List.length hb.hb_sim_nexthops
  and n_real = List.length hb.hb_real_nexthops in
  if n_sim <> n_real then
    hints :=
      Printf.sprintf
        "ECMP count differs on %s: simulated %d next hops vs real %d"
        hb.hb_device n_sim n_real
      :: !hints;
  if
    not (List.equal Int.equal hb.hb_sim_igp_costs hb.hb_real_igp_costs)
  then
    hints :=
      Printf.sprintf
        "IGP costs differ on %s (sim %s vs real %s): check IGP/SR interaction \
         and vendor-specific IGP-cost handling"
        hb.hb_device
        (String.concat "," (List.map string_of_int hb.hb_sim_igp_costs))
        (String.concat "," (List.map string_of_int hb.hb_real_igp_costs))
      :: !hints;
  List.rev !hints

(** Run the workflow for one divergent link.

    [monitored_flows] supplies candidate flows with measured volumes;
    [sim_rib]/[real_rib] are the simulated RIB and the live ground truth;
    [model] is the (simulated) network model used to rebuild forwarding
    paths. *)
let analyze_link (model : Model.t) ~(link : string * string)
    ~(monitored_flows : Hoyan_monitor.Traffic_monitor.flow_record list)
    ~(sim_rib : Rib.t) ~(real_rib : Rib.t) : finding option =
  let src_dev, _dst_dev = link in
  (* step 2: the largest-volume flow traversing the link (in the real
     network: test membership by walking it on the real RIB) *)
  let traverses rib (f : Flow.t) =
    let fibs = Traffic_sim.build_fibs rib in
    let w = Traffic_sim.walk_flow model fibs f in
    List.exists (fun (k, _) -> k = link) w.Traffic_sim.w_edges
  in
  let candidates =
    monitored_flows
    |> List.filter (fun (fr : Hoyan_monitor.Traffic_monitor.flow_record) ->
           traverses real_rib fr.Hoyan_monitor.Traffic_monitor.fr_flow)
    |> List.sort (fun a b ->
           Float.compare b.Hoyan_monitor.Traffic_monitor.fr_volume
             a.Hoyan_monitor.Traffic_monitor.fr_volume)
  in
  match candidates with
  | [] -> None
  | top :: _ ->
      let flow = top.Hoyan_monitor.Traffic_monitor.fr_flow in
      (* step 3: build the simulated forwarding paths of the flow *)
      let sim_fibs = Traffic_sim.build_fibs sim_rib in
      let w = Traffic_sim.walk_flow model sim_fibs flow in
      (* step 4: compare per-router behaviour starting from the router
         attached to the divergent link, then along the simulated path *)
      let devices_to_check =
        src_dev
        :: List.concat_map
             (fun (p : Traffic_sim.path) -> p.Traffic_sim.hops)
             w.Traffic_sim.w_paths
        |> List.sort_uniq String.compare
      in
      let behaviours =
        List.map (fun d -> compare_hop ~sim_rib ~real_rib d flow) devices_to_check
      in
      let divergent = List.find_opt behaviour_differs behaviours in
      Some
        {
          f_link = link;
          f_flow = flow;
          f_paths = w.Traffic_sim.w_paths;
          f_divergent = divergent;
          f_hints =
            (match divergent with Some hb -> hints_of hb | None -> []);
        }

let finding_to_string (f : finding) =
  let src, dst = f.f_link in
  let div =
    match f.f_divergent with
    | Some hb ->
        Printf.sprintf "first divergent router: %s (sim nh [%s], real nh [%s])"
          hb.hb_device
          (String.concat "," hb.hb_sim_nexthops)
          (String.concat "," hb.hb_real_nexthops)
    | None -> "no divergent router identified"
  in
  Printf.sprintf "link %s->%s, flow %s: %s%s" src dst (Flow.to_string f.f_flow)
    div
    (if f.f_hints = [] then ""
     else "\n  hints: " ^ String.concat "; " f.f_hints)
