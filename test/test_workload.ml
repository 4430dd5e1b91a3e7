(* Tests and properties of the synthetic workload generator: structural
   invariants, the print->parse round trip, EC soundness on generated
   inputs, and traffic sanity. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Types = Hoyan_config.Types
module Printer = Hoyan_config.Printer
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Smap = Map.Make (String)


(* fixed seed: the property suites are deterministic run to run *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |]) t

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let g = lazy (G.generate G.small)

let test_structure () =
  let g = Lazy.force g in
  check tint "3 regions x (4 cores + 2 borders + 1 rr)" 21 (G.device_count g);
  check tint "borders" 6 (List.length g.G.borders);
  check tbool "everything is connected (IGP reaches everywhere)" true
    (let igp = g.G.model.Model.igp in
     let devs = List.init (G.device_count g) Fun.id in
     List.for_all
       (fun src ->
         List.for_all
           (fun dst -> Hoyan_proto.Isis.reachable igp ~src ~dst)
           devs)
       devs);
  (* mixed vendors, both present *)
  let vendors =
    Smap.fold
      (fun _ (c : Types.t) acc -> c.Types.dc_vendor :: acc)
      g.G.model.Model.configs []
    |> List.sort_uniq String.compare
  in
  check Alcotest.(list string) "both dialects" [ "vendorA"; "vendorB" ] vendors

let test_reparse_clean () =
  (* every emitted configuration re-parses without errors, whatever the
     seed: the printers and parsers are exact inverses on generated
     configs *)
  List.iter
    (fun seed ->
      let g = G.generate { G.small with G.g_seed = seed } in
      check tint
        (Printf.sprintf "seed %d parses clean" seed)
        0 g.G.parse_errors)
    [ 1; 2; 3; 4; 5 ]

let test_ec_soundness_on_generated () =
  (* the EC-compressed simulation equals the uncompressed one on the full
     generated workload — the central soundness claim of §3.1 *)
  let g = Lazy.force g in
  let ec = Route_sim.run g.G.model ~input_routes:g.G.input_routes () in
  let plain =
    Route_sim.run ~use_ecs:false g.G.model ~input_routes:g.G.input_routes ()
  in
  check tbool "EC result equals plain result" true
    (Rib.equal ec.Route_sim.rib plain.Route_sim.rib);
  check tbool "compression achieved" true (ec.Route_sim.compression > 1.5)

let test_flow_conservation () =
  let g = Lazy.force g in
  let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
  let tr = Traffic_sim.run g.G.model ~rib ~flows:g.G.flows () in
  (* per flow: delivered + dropped + looped = 1 *)
  List.iter
    (fun (fr : Traffic_sim.flow_result) ->
      let total =
        fr.Traffic_sim.f_delivered +. fr.Traffic_sim.f_dropped
        +. fr.Traffic_sim.f_looped
      in
      if Float.abs (total -. 1.0) > 1e-6 then
        Alcotest.failf "flow not conserved (%.6f): %s" total
          (Flow.to_string fr.Traffic_sim.f_flow))
    tr.Traffic_sim.flow_results;
  (* link loads are non-negative and only on existing links *)
  Hashtbl.iter
    (fun (a, b) load ->
      check tbool "load >= 0" true (load >= 0.);
      check tbool "load on a real link" true
        (Option.is_some (Topology.edge_between g.G.model.Model.topo a b)))
    tr.Traffic_sim.link_load

let test_isp_confinement () =
  (* ISP prefixes stay near their home region (borders + RRs); DC-less
     small nets announce "DC" prefixes at borders too, so just check that
     ISP routes never land on core routers *)
  let g = Lazy.force g in
  let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
  let isp_prefix (p : Prefix.t) =
    match Prefix.ip p with
    | Ip.V4 n -> n lsr 24 >= 100 && n lsr 24 < 150
    | Ip.V6 _ -> false
  in
  let offenders =
    List.filter
      (fun (r : Route.t) ->
        r.Route.proto = Route.Bgp
        && isp_prefix r.Route.prefix
        && (match Topology.device g.G.model.Model.topo r.Route.device with
           | Some d -> d.Topology.role = Topology.Wan_core
           | None -> false))
      (Rib.to_list rib)
  in
  check tint "no ISP route on cores" 0 (List.length offenders)

(* property: generated input routes always re-inject at devices of the
   model and carry resolvable-or-local next hops *)
let prop_inputs_wellformed =
  QCheck.Test.make ~name:"generated inputs are well-formed" ~count:5
    (QCheck.make (QCheck.Gen.int_range 10 100))
    (fun seed ->
      let g = G.generate { G.small with G.g_seed = seed } in
      List.for_all
        (fun (r : Route.t) ->
          Option.is_some (Model.config g.G.model r.Route.device))
        g.G.input_routes)

(* property: with any seed, with or without BGP aggregates over its
   inputs, route simulation converges within the fixpoint bound and the
   distributed framework reproduces it *)
let prop_distributed_equivalence =
  QCheck.Test.make ~name:"distributed = direct on random seeds" ~count:3
    (QCheck.make (QCheck.Gen.int_range 20 60))
    (fun seed ->
      let g = G.generate { G.small with G.g_seed = seed; g_prefixes = 80 } in
      List.for_all
        (fun model ->
          let direct =
            (Route_sim.run model ~input_routes:g.G.input_routes ())
              .Route_sim.rib
          in
          let fw = Hoyan_dist.Framework.create model in
          let rp =
            Hoyan_dist.Framework.run_route_phase ~subtasks:6 fw
              ~input_routes:g.G.input_routes
          in
          Rib.equal direct rp.Hoyan_dist.Framework.rp_rib)
        [ g.G.model; Agg_nets.add ~seed g ])

let test_dual_stack () =
  let g = Lazy.force g in
  (* both families appear in inputs and flows, and all v6 flows deliver *)
  let v6_inputs =
    List.filter
      (fun (r : Route.t) -> Prefix.family r.Route.prefix = Ip.Ipv6)
      g.G.input_routes
  in
  check tbool "v6 inputs generated" true (List.length v6_inputs > 0);
  let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
  let tr = Traffic_sim.run g.G.model ~rib ~flows:g.G.flows () in
  let v6_results =
    List.filter
      (fun (fr : Traffic_sim.flow_result) ->
        Ip.family fr.Traffic_sim.f_flow.Flow.dst = Ip.Ipv6)
      tr.Traffic_sim.flow_results
  in
  check tbool "v6 flows simulated" true (List.length v6_results > 0);
  List.iter
    (fun (fr : Traffic_sim.flow_result) ->
      if fr.Traffic_sim.f_delivered < 0.999 then
        Alcotest.failf "v6 flow not delivered: %s"
          (Flow.to_string fr.Traffic_sim.f_flow))
    v6_results

let test_no_forwarding_loops () =
  (* with the SRv6-style recursive forwarding, the generated WAN must be
     loop free for every seed *)
  List.iter
    (fun seed ->
      let g = G.generate { G.small with G.g_seed = seed } in
      let rib =
        (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib
      in
      let tr = Traffic_sim.run g.G.model ~rib ~flows:g.G.flows () in
      List.iter
        (fun (fr : Traffic_sim.flow_result) ->
          if fr.Traffic_sim.f_looped > 1e-6 then
            Alcotest.failf "seed %d: looping flow %s" seed
              (Flow.to_string fr.Traffic_sim.f_flow))
        tr.Traffic_sim.flow_results)
    [ 1; 2; 3 ]

let test_sr_tunnels_present () =
  let g = Lazy.force g in
  let total =
    Smap.fold
      (fun _ ts n -> n + List.length ts)
      g.G.model.Model.tunnels 0
  in
  check tbool "SR tunnels resolved" true (total > 0)

let suite =
  [
    ("generator structure", `Quick, test_structure);
    ("dual-stack generation + delivery", `Slow, test_dual_stack);
    ("no forwarding loops (3 seeds)", `Slow, test_no_forwarding_loops);
    ("SR tunnels resolved", `Quick, test_sr_tunnels_present);
    ("emitted configs reparse clean", `Slow, test_reparse_clean);
    ("EC soundness on generated workload", `Slow, test_ec_soundness_on_generated);
    ("flow conservation", `Slow, test_flow_conservation);
    ("ISP route confinement", `Slow, test_isp_confinement);
    qtest prop_inputs_wellformed;
    qtest prop_distributed_equivalence;
  ]
