(* Tests for the monitoring simulators and the accuracy-diagnosis
   framework: cross-validation, fault detection, root-cause analysis
   (the Figure-9 case), issue classification, and the Table-5 VSB
   differential harness. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module B = Hoyan_workload.Builder
module Types = Hoyan_config.Types
module Route_monitor = Hoyan_monitor.Route_monitor
module Traffic_monitor = Hoyan_monitor.Traffic_monitor
module Topo_monitor = Hoyan_monitor.Topo_monitor
module Faults = Hoyan_monitor.Faults
module Validate = Hoyan_diag.Validate
module Rootcause = Hoyan_diag.Rootcause
module Issues = Hoyan_diag.Issues
module Vsb_test = Hoyan_diag.Vsb_test
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let pfx = Prefix.of_string_exn

let scenario = lazy (G.generate G.small)

let sim_state =
  lazy
    (let g = Lazy.force scenario in
     let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
     let traffic = Traffic_sim.run g.G.model ~rib ~flows:g.G.flows () in
     (g, rib, traffic))

(* --- monitors --------------------------------------------------------------- *)

let test_route_monitor_modes () =
  let _, rib, _ = Lazy.force sim_state in
  let bgp_routes =
    List.filter (fun (r : Route.t) -> r.Route.proto = Route.Bgp)
      (Rib.to_list rib)
  in
  let agent = Route_monitor.observe (Route_monitor.create ()) rib in
  let bmp =
    Route_monitor.observe (Route_monitor.create ~mode:Route_monitor.Bmp ()) rib
  in
  check tbool "agent mode sees only best routes" true
    (List.for_all (fun (r : Route.t) -> r.Route.route_type = Route.Best) agent);
  check tint "bmp mode mirrors the full BGP RIB" (List.length bgp_routes)
    (List.length bmp);
  check tbool "agent view is lossy" true (List.length agent < List.length bmp)

let test_route_monitor_agent_down () =
  let g, rib, _ = Lazy.force sim_state in
  let dev = List.hd g.G.borders in
  let mon =
    Route_monitor.create ~faults:[ Faults.Agent_down dev ] ()
  in
  let observed = Route_monitor.observe mon rib in
  check tbool "no routes from the failed agent" true
    (not (List.exists (fun (r : Route.t) -> String.equal r.Route.device dev) observed))

let test_traffic_monitor_faults () =
  let g, _, traffic = Lazy.force sim_state in
  let dev = List.hd g.G.borders in
  let mon =
    Traffic_monitor.create ~faults:[ Faults.Netflow_volume_bug (dev, 2.0) ] ()
  in
  let records = Traffic_monitor.observe_flows mon g.G.flows in
  List.iter
    (fun (fr : Traffic_monitor.flow_record) ->
      let f = fr.Traffic_monitor.fr_flow in
      let truth = f.Flow.volume *. float_of_int f.Flow.population in
      if String.equal fr.Traffic_monitor.fr_device dev then
        check (Alcotest.float 1.0) "volume doubled" (2. *. truth)
          fr.Traffic_monitor.fr_volume
      else check (Alcotest.float 1.0) "volume exact" truth fr.Traffic_monitor.fr_volume)
    records;
  (* SNMP stuck counter *)
  let some_link =
    Hashtbl.fold (fun k _ _acc -> Some k) traffic.Traffic_sim.link_load None
    |> Option.get
  in
  let mon2 =
    Traffic_monitor.create
      ~faults:[ Faults.Snmp_counter_stuck (fst some_link, snd some_link) ]
      ()
  in
  let loads = Traffic_monitor.observe_link_loads mon2 traffic.Traffic_sim.link_load in
  check (Alcotest.float 0.001) "stuck counter reads 0" 0.
    (Hashtbl.find loads some_link)

let test_topo_monitor () =
  let g, _, _ = Lazy.force sim_state in
  let live = g.G.model.Hoyan_sim.Model.topo in
  let d1 = List.hd g.G.borders and d2 = List.nth g.G.borders 1 in
  let mon = Topo_monitor.create ~faults:[ Faults.Stale_link (d1, d2) ] () in
  let observed = Topo_monitor.observe mon live in
  check tint "stale link added" (Topology.num_links live + 1)
    (Topology.num_links observed)

(* --- cross-validation -------------------------------------------------------- *)

let test_validation_clean () =
  let g, rib, traffic = Lazy.force sim_state in
  let monitored = Route_monitor.observe (Route_monitor.create ()) rib in
  let mon_loads =
    Traffic_monitor.observe_link_loads (Traffic_monitor.create ())
      traffic.Traffic_sim.link_load
  in
  let report =
    Validate.daily ~simulated_rib:rib ~monitored_rib:monitored
      ~topo:g.G.model.Hoyan_sim.Model.topo
      ~simulated_loads:traffic.Traffic_sim.link_load
      ~monitored_loads:mon_loads ()
  in
  check tbool "accurate day reports clean" true (Validate.is_accurate report)

let test_validation_detects_agent_down () =
  let g, rib, traffic = Lazy.force sim_state in
  let dev = List.hd g.G.borders in
  let monitored =
    Route_monitor.observe
      (Route_monitor.create ~faults:[ Faults.Agent_down dev ] ())
      rib
  in
  let report =
    Validate.daily ~simulated_rib:rib ~monitored_rib:monitored
      ~topo:g.G.model.Hoyan_sim.Model.topo
      ~simulated_loads:traffic.Traffic_sim.link_load
      ~monitored_loads:traffic.Traffic_sim.link_load ()
  in
  check tbool "missing-in-monitor discrepancies found" true
    (List.exists
       (function
         | Validate.Missing_in_monitor r -> String.equal r.Route.device dev
         | _ -> false)
       report.Validate.rep_route_issues);
  (* ...and classify as a route-monitoring-data issue *)
  let ev =
    { Issues.no_evidence with
      Issues.ev_routes_missing_whole_device = Some dev }
  in
  check tbool "classified as route monitoring data" true
    (Issues.classify ev = Issues.Route_monitoring_data)

(* R2 denies AS paths through 666 with a deep regex that the legacy
   engine misses; R1 injects one such route. *)
let deep_regex_net () =
  let b = B.create () in
  B.add_device b ~name:"R1" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"R2" ~vendor:"vendorA" ~asn:65002
    ~router_id:(B.ip "2.2.2.2") ();
  let a12, b12 = B.link b ~a:"R1" ~b:"R2" ~subnet:(pfx "10.0.0.0/31") () in
  B.update_config b "R2" (fun cfg ->
      { cfg with
        Types.dc_aspath_filters =
          Types.Smap.add "DEEP"
            { Types.af_name = "DEEP";
              af_entries =
                [ { Types.ae_seq = 5; ae_action = Types.Permit;
                    ae_regex = ".* 666 .*" } ] }
            cfg.Types.dc_aspath_filters });
  B.add_policy b "R2"
    (B.policy "IMP"
       [
         B.node 10 ~action:(Some Types.Deny)
           ~matches:[ Types.Match_aspath_filter "DEEP" ];
         B.node 20;
       ]);
  B.bgp_session b ~a:"R1" ~b:"R2" ~a_addr:a12 ~b_addr:b12 ~b_import:"IMP" ();
  let input =
    [ B.input_route ~device:"R1" ~prefix:"99.0.0.0/24"
        ~as_path:[ 1; 2; 3; 666; 4 ] () ]
  in
  (b, input)

let test_validation_detects_sim_inaccuracy () =
  (* simulate with the flawed legacy regex: policies mis-match, so the
     simulated RIB differs from the (correctly simulated) live network *)
  let b, input = deep_regex_net () in
  (* ground truth: correct regex blocks the route at R2 *)
  let live_model = B.build b in
  let live_rib = (Route_sim.run live_model ~input_routes:input ()).Route_sim.rib in
  (* Hoyan with the legacy engine: misses the deep match, accepts it *)
  let flawed_model =
    B.build ~regex:Hoyan_regex.Regex.Legacy.matches_str b
  in
  let sim_rib = (Route_sim.run flawed_model ~input_routes:input ()).Route_sim.rib in
  let monitored = Route_monitor.observe (Route_monitor.create ()) live_rib in
  let issues, _ =
    Validate.validate_routes ~simulated:sim_rib ~monitored ()
  in
  check tbool "extra simulated route flagged" true
    (List.exists
       (function
         | Validate.Missing_in_monitor r -> String.equal r.Route.device "R2"
         | _ -> false)
       issues)

(* A patched model keeps its base's regex engine: through a no-op plan
   the legacy-regex model keeps its flawed RIB. *)
let test_patch_keeps_regex_engine () =
  let b, input = deep_regex_net () in
  let rib m = (Route_sim.run m ~input_routes:input ()).Route_sim.rib in
  let flawed = B.build ~regex:Hoyan_regex.Regex.Legacy.matches_str b in
  let patched, _ =
    Hoyan_sim.Model.apply_change_plan flawed
      (Hoyan_config.Change_plan.make "noop")
  in
  check tbool "flawed and correct RIBs differ" false
    (Rib.equal (rib flawed) (rib (B.build b)));
  check tbool "patched RIB = the flawed RIB" true
    (Rib.equal (rib flawed) (rib patched))

(* --- root cause analysis (the Figure 9 case) ---------------------------------- *)

let figure9_models () =
  (* A hears 99/24 via Bx and Cx with equal IGP costs; A has an SR policy
     towards Bx.  The live vendor treats SR-reached next hops as IGP cost
     0 (so only Bx is used); Hoyan's model without that VSB predicts ECMP
     across both. *)
  let build vendor =
    let b = B.create () in
    B.add_device b ~name:"A" ~vendor ~asn:65000 ~router_id:(B.ip "10.255.0.1") ();
    B.add_device b ~name:"Bx" ~vendor:"vendorB" ~asn:65000
      ~router_id:(B.ip "10.255.0.2") ();
    B.add_device b ~name:"Cx" ~vendor:"vendorB" ~asn:65000
      ~router_id:(B.ip "10.255.0.3") ();
    B.add_device b ~name:"D" ~vendor:"vendorB" ~asn:65000
      ~router_id:(B.ip "10.255.0.4") ();
    ignore (B.link b ~a:"A" ~b:"Bx" ~subnet:(pfx "10.1.0.0/31") ());
    ignore (B.link b ~a:"A" ~b:"Cx" ~subnet:(pfx "10.2.0.0/31") ());
    ignore (B.link b ~a:"D" ~b:"A" ~subnet:(pfx "10.3.0.0/31") ());
    B.add_policy b "A" (B.policy "PASS" [ B.node 10 ]);
    B.add_policy b "Bx" (B.policy "PASS" [ B.node 10 ]);
    B.add_policy b "Cx" (B.policy "PASS" [ B.node 10 ]);
    B.add_policy b "D" (B.policy "PASS" [ B.node 10 ]);
    B.ibgp_loopback_session b ~a:"A" ~b:"Bx" ~a_import:"PASS" ~a_export:"PASS"
      ~b_import:"PASS" ~b_export:"PASS" ();
    B.ibgp_loopback_session b ~a:"A" ~b:"Cx" ~a_import:"PASS" ~a_export:"PASS"
      ~b_import:"PASS" ~b_export:"PASS" ();
    B.ibgp_loopback_session b ~a:"D" ~b:"A" ~a_import:"PASS" ~a_export:"PASS"
      ~b_import:"PASS" ~b_export:"PASS" ~b_rr_client:true
      ~b_next_hop_self:true ();
    B.add_sr_policy b "A"
      { Types.sp_name = "TO_B"; sp_endpoint = B.ip "10.255.0.2"; sp_color = 1;
        sp_segments = []; sp_preference = 100 };
    b
  in
  let inputs =
    [
      B.input_route ~device:"Bx" ~prefix:"99.0.0.0/24" ~nexthop:"10.255.0.2"
        ~as_path:[ 7018 ] ();
      B.input_route ~device:"Cx" ~prefix:"99.0.0.0/24" ~nexthop:"10.255.0.3"
        ~as_path:[ 7018 ] ();
    ]
  in
  (* live network: vendor A semantics (sr_igp_cost_zero = true) *)
  let live = B.build (build "vendorA") in
  (* Hoyan's (pre-fix) model: vendor B semantics for A (no SR VSB) *)
  let hoyan = B.build (build "vendorB") in
  (live, hoyan, inputs)

let test_figure9_root_cause () =
  let live_model, hoyan_model, inputs = figure9_models () in
  let live_rib = (Route_sim.run live_model ~input_routes:inputs ()).Route_sim.rib in
  let sim_rib = (Route_sim.run hoyan_model ~input_routes:inputs ()).Route_sim.rib in
  (* the flow from D to the prefix *)
  let flow =
    Flow.make ~src:(B.ip "8.8.8.8") ~dst:(B.ip "99.0.0.10") ~ingress:"D"
      ~volume:5e9 ()
  in
  (* step 1 stand-in: the A->Cx link shows a large load difference
     (live sends everything A->Bx; the simulation splits) *)
  let records =
    Traffic_monitor.observe_flows (Traffic_monitor.create ()) [ flow ]
  in
  let finding =
    Rootcause.analyze_link hoyan_model ~link:("A", "Bx")
      ~monitored_flows:records ~sim_rib ~real_rib:live_rib
  in
  match finding with
  | None -> Alcotest.fail "no finding"
  | Some f -> (
      match f.Rootcause.f_divergent with
      | None -> Alcotest.fail "divergent router not localized"
      | Some hb ->
          check Alcotest.string "localized at A" "A" hb.Rootcause.hb_device;
          check tint "sim shows ECMP (2 next hops)" 2
            (List.length hb.Rootcause.hb_sim_nexthops);
          check tint "real uses one next hop" 1
            (List.length hb.Rootcause.hb_real_nexthops);
          (* the hints point at ECMP-count and IGP-cost/SR interaction *)
          check tbool "hints mention IGP/SR" true
            (List.exists
               (fun h ->
                 try
                   ignore (Str.search_forward (Str.regexp_string "SR") h 0);
                   true
                 with Not_found -> false)
               f.Rootcause.f_hints))

(* --- Table 5 ------------------------------------------------------------------ *)

let test_vsb_differential_all_16 () =
  let detections = Vsb_test.run_all () in
  check tint "16 dimensions tested" 16 (List.length detections);
  List.iter
    (fun (d : Vsb_test.detection) ->
      if not d.Vsb_test.det_detected then
        Alcotest.failf "dimension not detected: %s" d.Vsb_test.det_dimension)
    detections

(* --- Table 4 classifier --------------------------------------------------------- *)

let test_issue_classifier () =
  let open Issues in
  check tbool "volume-only -> traffic monitoring" true
    (classify { no_evidence with ev_flow_volume_only = true }
    = Traffic_monitoring_data);
  check tbool "topo mismatch -> topology" true
    (classify { no_evidence with ev_topo_mismatch = true } = Topology_data);
  check tbool "parse errors -> config parsing" true
    (classify { no_evidence with ev_parse_errors = true } = Config_parsing);
  check tbool "vendor boundary -> VSB" true
    (classify { no_evidence with ev_vendor_dependent = true }
    = Vendor_specific_behaviour);
  check tbool "policy diff -> simulation bug" true
    (classify { no_evidence with ev_policy_match_diff = true } = Simulation_bug);
  check tbool "monitoring wins over simulation" true
    (classify
       { no_evidence with
         ev_routes_missing_whole_device = Some "X";
         ev_policy_match_diff = true }
    = Route_monitoring_data);
  check tbool "nothing -> other" true (classify no_evidence = Other);
  (* the published distribution sums to ~100% *)
  let total = List.fold_left (fun a (_, p) -> a +. p) 0. paper_distribution in
  check tbool "Table 4 sums to 100%" true (Float.abs (total -. 100.) < 0.2)

let test_live_show_validation () =
  (* high-priority prefixes are validated against the live network via
     show commands: the agent view hides ECMP, the live view does not *)
  let b = B.create () in
  B.add_device b ~name:"A" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.1") ();
  B.add_device b ~name:"Bx" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.2") ();
  B.add_device b ~name:"Cx" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.3") ();
  ignore (B.link b ~a:"A" ~b:"Bx" ~subnet:(pfx "10.1.0.0/31") ());
  ignore (B.link b ~a:"A" ~b:"Cx" ~subnet:(pfx "10.2.0.0/31") ());
  B.ibgp_loopback_session b ~a:"A" ~b:"Bx" ();
  B.ibgp_loopback_session b ~a:"A" ~b:"Cx" ();
  let model = B.build b in
  let inputs =
    [
      B.input_route ~device:"Bx" ~prefix:"0.0.0.0/0" ~nexthop:"10.255.0.2"
        ~as_path:[ 7018 ] ();
      B.input_route ~device:"Cx" ~prefix:"0.0.0.0/0" ~nexthop:"10.255.0.3"
        ~as_path:[ 7018 ] ();
    ]
  in
  let rib = (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib in
  let monitored = Route_monitor.observe (Route_monitor.create ()) rib in
  let priority = [ pfx "0.0.0.0/0" ] in
  (* live matches the simulation: clean, even for the ECMP route the
     agent view cannot see *)
  let issues, _ =
    Validate.validate_routes ~simulated:rib ~monitored
      ~live:(Rib.to_list rib) ~priority_prefixes:priority ()
  in
  check tint "live check clean" 0 (List.length issues);
  (* the live network lost the ECMP companion (e.g. the Figure-9 VSB):
     only the live comparison can catch it *)
  let degraded_live =
    Rib.filter
      (fun (r : Route.t) ->
        not
          (String.equal r.Route.device "A"
          && r.Route.route_type = Route.Ecmp
          && Prefix.equal r.Route.prefix (pfx "0.0.0.0/0")))
      rib
  in
  let issues_live, _ =
    Validate.validate_routes ~simulated:rib ~monitored
      ~live:(Rib.to_list degraded_live)
      ~priority_prefixes:priority ()
  in
  check tbool "ECMP loss caught via live show" true (issues_live <> []);
  (* without the live fallback the agent view cannot distinguish them *)
  let issues_agent, _ =
    Validate.validate_routes ~simulated:rib
      ~monitored:(Route_monitor.observe (Route_monitor.create ()) degraded_live)
      ()
  in
  check tint "agent view alone is blind to it" 0 (List.length issues_agent)

let suite =
  [
    ("route monitor modes", `Slow, test_route_monitor_modes);
    ("live-show validation of priority prefixes", `Quick, test_live_show_validation);
    ("route monitor agent down", `Slow, test_route_monitor_agent_down);
    ("traffic monitor faults", `Slow, test_traffic_monitor_faults);
    ("topology monitor", `Slow, test_topo_monitor);
    ("validation: clean day", `Slow, test_validation_clean);
    ("validation: agent down detected", `Slow, test_validation_detects_agent_down);
    ("validation: flawed regex detected", `Quick, test_validation_detects_sim_inaccuracy);
    ("figure 9 root cause", `Quick, test_figure9_root_cause);
    ("table 5: all 16 VSBs detected", `Slow, test_vsb_differential_all_16);
    ("table 4: issue classifier", `Quick, test_issue_classifier);
    ("a patched model keeps its regex engine", `Quick, test_patch_keeps_regex_engine);
  ]
