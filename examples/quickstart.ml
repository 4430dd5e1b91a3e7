(* Quickstart: build a small WAN, run route + traffic simulation, verify a
   change plan with RCL and traffic intents, and print the results.

   Run with:  dune exec examples/quickstart.exe *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Cp = Hoyan_config.Change_plan
module Preprocess = Hoyan_core.Preprocess
module Intents = Hoyan_core.Intents
module Verify_request = Hoyan_core.Verify_request
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Bgp = Hoyan_proto.Bgp

let () =
  (* 1. Generate a small synthetic WAN: 3 regions, ~20 routers, mixed
     vendors.  Configurations are emitted as vendor-dialect text and
     re-parsed, exactly as production configs would be. *)
  let g = G.generate G.small in
  Printf.printf "network: %s\n\n" (G.stats g);

  (* 2. Pre-processing: filter the monitored routes/flows into simulation
     inputs and build the base model (in production this runs daily). *)
  let base =
    Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
      ~monitored_flows:g.G.flows
  in

  (* 3. Simulate the base network: BGP/IS-IS fixpoint -> all RIBs, then
     flow forwarding -> paths and link loads. *)
  let rib = Lazy.force base.Preprocess.b_rib in
  let traffic = Lazy.force base.Preprocess.b_traffic in
  Printf.printf "base simulation: %d RIB rows, %d flow ECs, %d loaded links\n\n"
    (Rib.length rib)
    traffic.Traffic_sim.ec_count
    (Hashtbl.length traffic.Traffic_sim.link_load);

  (* 4. A change plan: raise the local preference of one border's
     ISP-learned routes (written in the device's own dialect). *)
  let border = List.hd g.G.borders in
  let vendor =
    (Hoyan_sim.Model.config g.G.model border |> Option.get)
      .Hoyan_config.Types.dc_vendor
  in
  let block =
    if String.equal vendor "vendorA" then
      "route-map ISP_IN permit 10\n set community 64512:100 additive\n set \
       local-preference 250\n"
    else
      "route-policy ISP_IN permit node 10\n apply community 64512:100 \
       additive\n apply local-preference 250\n"
  in
  let plan = Cp.make "bump-isp-pref" ~commands:[ (border, block) ] in

  (* 5. Intents: the paper's three abstractions in one request — an RCL
     route-change intent, a flow-path intent and a load threshold. *)
  let request =
    {
      Verify_request.rq_name = "bump-isp-pref";
      rq_plan = plan;
      rq_intents =
        [
          Intents.Route_change
            (Printf.sprintf
               "forall device in {%s} : PRE |> count() = POST |> count()" border);
          Intents.Max_utilization 0.95;
        ];
    }
  in
  let res = Verify_request.run base request in
  print_string (Verify_request.report res);

  (* 6. The same request through the distributed framework (master, MQ,
     object store, workers), as §3.2 describes. *)
  let res_dist =
    Verify_request.run
      ~stage:
        (Verify_request.Simulate
           (Verify_request.Distributed
              {
                subtasks = 16;
                chaos = Hoyan_dist.Chaos.none;
                on_partial = `Refuse;
              }))
      base request
  in
  let agrees =
    Rib.equal res.Verify_request.vr_updated_rib
      res_dist.Verify_request.vr_updated_rib
  in
  Printf.printf "\ndistributed run agrees: %b\n" agrees;
  if not agrees then exit 1
