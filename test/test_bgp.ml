(* End-to-end tests of the BGP engine, IS-IS, the model compiler, and the
   route/traffic simulators on small hand-built networks. *)

open Hoyan_net
module B = Hoyan_workload.Builder
module Types = Hoyan_config.Types
module Bgp = Hoyan_proto.Bgp
module Isis = Hoyan_proto.Isis
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let pfx = Prefix.of_string_exn

(* A simple line: EXT(input) - R1 --ebgp-- R2 --ebgp-- R3. *)
let line_network () =
  let b = B.create () in
  B.add_device b ~name:"R1" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"R2" ~vendor:"vendorA" ~asn:65002
    ~router_id:(B.ip "2.2.2.2") ();
  B.add_device b ~name:"R3" ~vendor:"vendorB" ~asn:65003
    ~router_id:(B.ip "3.3.3.3") ();
  let a12, b12 = B.link b ~a:"R1" ~b:"R2" ~subnet:(pfx "10.12.0.0/31") () in
  let a23, b23 = B.link b ~a:"R2" ~b:"R3" ~subnet:(pfx "10.23.0.0/31") () in
  B.bgp_session b ~a:"R1" ~b:"R2" ~a_addr:a12 ~b_addr:b12 ();
  (* R3 is vendor B, which drops eBGP updates without an explicit policy
     (the "missing route policy" VSB) — so its session carries pass-all
     policies, as a real VRP/XR-style deployment would. *)
  B.add_policy b "R3" (B.policy "PASS" [ B.node 10 ]);
  B.bgp_session b ~a:"R2" ~b:"R3" ~a_addr:a23 ~b_addr:b23 ~b_import:"PASS"
    ~b_export:"PASS" ();
  b

let find_routes (rib : Rib.t) ~device ~prefix =
  List.filter
    (fun (r : Route.t) ->
      String.equal r.Route.device device
      && Prefix.equal r.Route.prefix (pfx prefix)
      && r.Route.proto = Route.Bgp)
    (Rib.to_list rib)

let test_linear_propagation () =
  let b = line_network () in
  let model = B.build b in
  let input =
    [ B.input_route ~device:"R1" ~prefix:"99.0.0.0/24" ~as_path:[ 7018 ] () ]
  in
  let res = Route_sim.run model ~input_routes:input () in
  (* the route must appear on all three devices *)
  List.iter
    (fun dev ->
      check tbool
        (Printf.sprintf "route on %s" dev)
        true
        (find_routes res.Route_sim.rib ~device:dev ~prefix:"99.0.0.0/24" <> []))
    [ "R1"; "R2"; "R3" ];
  (* AS path grows along the way *)
  let r3 =
    List.hd (find_routes res.Route_sim.rib ~device:"R3" ~prefix:"99.0.0.0/24")
  in
  check tstr "as path at R3" "65002 65001 7018"
    (As_path.to_string r3.Route.as_path);
  (* next hop at R3 is R2's link address *)
  check tstr "nexthop at R3" "10.23.0.0" (Route.nexthop_string r3);
  check tbool "fixpoint quick" true
    (res.Route_sim.bgp_stats.Bgp.st_rounds <= 10)

let test_as_loop_prevention () =
  let b = line_network () in
  let model = B.build b in
  (* input already carries R3's ASN: R3 must reject it *)
  let input =
    [ B.input_route ~device:"R1" ~prefix:"99.0.0.0/24" ~as_path:[ 65003; 7018 ]
        () ]
  in
  let res = Route_sim.run model ~input_routes:input () in
  check tbool "R2 has it" true
    (find_routes res.Route_sim.rib ~device:"R2" ~prefix:"99.0.0.0/24" <> []);
  check tbool "R3 rejects (loop)" true
    (find_routes res.Route_sim.rib ~device:"R3" ~prefix:"99.0.0.0/24" = [])

let test_import_policy_blocks () =
  let b = line_network () in
  (* R2 blocks routes with community 666:666 from R1 *)
  B.add_community_list b "R2"
    { Types.cl_name = "BLOCK";
      cl_entries =
        [ { Types.ce_seq = 5; ce_action = Types.Permit;
            ce_members = [ B.comm "666:666" ] } ] };
  B.add_policy b "R2"
    (B.policy "IMP"
       [
         B.node 10 ~action:(Some Types.Deny)
           ~matches:[ Types.Match_community_list "BLOCK" ];
         B.node 20;
       ]);
  B.update_config b "R2" (fun cfg ->
      let nbs =
        List.map
          (fun (nb : Types.neighbor) ->
            if Ip.equal nb.Types.nb_addr (B.ip "10.12.0.0") then
              { nb with Types.nb_import = Some "IMP" }
            else nb)
          cfg.Types.dc_bgp.Types.bgp_neighbors
      in
      { cfg with Types.dc_bgp = { cfg.Types.dc_bgp with Types.bgp_neighbors = nbs } });
  let model = B.build b in
  let tainted =
    B.input_route ~device:"R1" ~prefix:"66.0.0.0/24" ~communities:[ "666:666" ]
      ~as_path:[ 7018 ] ()
  in
  let clean =
    B.input_route ~device:"R1" ~prefix:"77.0.0.0/24" ~as_path:[ 7018 ] ()
  in
  let res = Route_sim.run model ~input_routes:[ tainted; clean ] () in
  check tbool "tainted blocked at R2" true
    (find_routes res.Route_sim.rib ~device:"R2" ~prefix:"66.0.0.0/24" = []);
  check tbool "clean passes" true
    (find_routes res.Route_sim.rib ~device:"R2" ~prefix:"77.0.0.0/24" <> [])

(* iBGP square with a route reflector:
        RR
       /  \
      C1    C2     (clients, same AS)
   C1 gets an external input; C2 must learn it via RR. *)
let test_route_reflection () =
  let b = B.create () in
  B.add_device b ~name:"RR" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.1") ~role:Topology.Rr ();
  B.add_device b ~name:"C1" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.2") ();
  B.add_device b ~name:"C2" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.3") ();
  ignore (B.link b ~a:"RR" ~b:"C1" ~subnet:(pfx "10.0.1.0/31") ());
  ignore (B.link b ~a:"RR" ~b:"C2" ~subnet:(pfx "10.0.2.0/31") ());
  B.ibgp_loopback_session b ~a:"RR" ~b:"C1" ~a_rr_client:true ();
  B.ibgp_loopback_session b ~a:"RR" ~b:"C2" ~a_rr_client:true ();
  let model = B.build b in
  let input =
    [ B.input_route ~device:"C1" ~prefix:"99.0.0.0/24" ~nexthop:"10.255.0.2"
        ~as_path:[ 7018 ] () ]
  in
  let res = Route_sim.run model ~input_routes:input () in
  check tbool "RR learned" true
    (find_routes res.Route_sim.rib ~device:"RR" ~prefix:"99.0.0.0/24" <> []);
  check tbool "C2 learned via reflection" true
    (find_routes res.Route_sim.rib ~device:"C2" ~prefix:"99.0.0.0/24" <> []);
  (* without the client flag, C2 must NOT learn it *)
  let b2 = B.create () in
  B.add_device b2 ~name:"RR" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.1") ();
  B.add_device b2 ~name:"C1" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.2") ();
  B.add_device b2 ~name:"C2" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "10.255.0.3") ();
  ignore (B.link b2 ~a:"RR" ~b:"C1" ~subnet:(pfx "10.0.1.0/31") ());
  ignore (B.link b2 ~a:"RR" ~b:"C2" ~subnet:(pfx "10.0.2.0/31") ());
  B.ibgp_loopback_session b2 ~a:"RR" ~b:"C1" ();
  B.ibgp_loopback_session b2 ~a:"RR" ~b:"C2" ();
  let res2 =
    Route_sim.run (B.build b2) ~input_routes:input ()
  in
  check tbool "no reflection without client flag" true
    (find_routes res2.Route_sim.rib ~device:"C2" ~prefix:"99.0.0.0/24" = [])

let test_local_pref_decision () =
  (* R3 hears 99/24 via two paths; an import policy raises local-pref on
     the longer one, which must then win. *)
  let b = B.create () in
  B.add_device b ~name:"S" ~vendor:"vendorA" ~asn:65100
    ~router_id:(B.ip "9.9.9.9") ();
  B.add_device b ~name:"L" ~vendor:"vendorA" ~asn:65200
    ~router_id:(B.ip "8.8.8.8") ();
  B.add_device b ~name:"D" ~vendor:"vendorA" ~asn:65300
    ~router_id:(B.ip "7.7.7.7") ();
  let s_d, d_s = B.link b ~a:"S" ~b:"D" ~subnet:(pfx "10.1.0.0/31") () in
  let l_d, d_l = B.link b ~a:"L" ~b:"D" ~subnet:(pfx "10.2.0.0/31") () in
  B.add_policy b "D"
    (B.policy "PREF_L" [ B.node 10 ~sets:[ Types.Set_local_pref 300 ] ]);
  B.bgp_session b ~a:"S" ~b:"D" ~a_addr:s_d ~b_addr:d_s ();
  B.bgp_session b ~a:"L" ~b:"D" ~a_addr:l_d ~b_addr:d_l ~b_import:"PREF_L"
    ();
  let model = B.build b in
  let inputs =
    [
      B.input_route ~device:"S" ~prefix:"99.0.0.0/24" ~as_path:[ 1 ] ();
      B.input_route ~device:"L" ~prefix:"99.0.0.0/24" ~as_path:[ 1; 2; 3 ] ();
    ]
  in
  let res = Route_sim.run model ~input_routes:inputs () in
  let d_routes = find_routes res.Route_sim.rib ~device:"D" ~prefix:"99.0.0.0/24" in
  check tint "two candidates at D" 2 (List.length d_routes);
  let best =
    List.find (fun (r : Route.t) -> r.Route.route_type = Route.Best) d_routes
  in
  (* best must be the one from L (lp 300) despite the longer AS path *)
  check tint "best has lp 300" 300 (Route.local_pref best);
  check tbool "best from L" true (best.Route.peer = Some "L")

let test_aggregation () =
  let b = line_network () in
  B.update_config b "R2" (fun cfg ->
      { cfg with
        Types.dc_bgp =
          { cfg.Types.dc_bgp with
            Types.bgp_aggregates =
              [ { Types.ag_prefix = pfx "99.0.0.0/16"; ag_as_set = false;
                  ag_summary_only = true; ag_vrf = Route.default_vrf } ] } });
  let model = B.build b in
  let input =
    [ B.input_route ~device:"R1" ~prefix:"99.0.1.0/24" ~as_path:[ 7018 ] () ]
  in
  let res = Route_sim.run model ~input_routes:input () in
  (* the aggregate appears at R2 and propagates to R3 *)
  check tbool "aggregate at R2" true
    (find_routes res.Route_sim.rib ~device:"R2" ~prefix:"99.0.0.0/16" <> []);
  check tbool "aggregate at R3" true
    (find_routes res.Route_sim.rib ~device:"R3" ~prefix:"99.0.0.0/16" <> []);
  (* summary-only suppresses the component towards R3 *)
  check tbool "component suppressed at R3" true
    (find_routes res.Route_sim.rib ~device:"R3" ~prefix:"99.0.1.0/24" = [])

let test_aggregation_vsb_common_prefix () =
  (* vendor A emits an empty AS path on the aggregate; vendor B carries the
     common prefix (Table 5: "common AS path prefix"). *)
  let run vendor =
    let b = B.create () in
    B.add_device b ~name:"AGG" ~vendor ~asn:65001 ~router_id:(B.ip "1.1.1.1") ();
    B.add_device b ~name:"PEER" ~vendor:"vendorA" ~asn:65002
      ~router_id:(B.ip "2.2.2.2") ();
    let a, p = B.link b ~a:"AGG" ~b:"PEER" ~subnet:(pfx "10.0.0.0/31") () in
    B.bgp_session b ~a:"AGG" ~b:"PEER" ~a_addr:a ~b_addr:p ();
    B.update_config b "AGG" (fun cfg ->
        { cfg with
          Types.dc_bgp =
            { cfg.Types.dc_bgp with
              Types.bgp_aggregates =
                [ { Types.ag_prefix = pfx "99.0.0.0/16"; ag_as_set = false;
                    ag_summary_only = false; ag_vrf = Route.default_vrf } ] } });
    let model = B.build b in
    let inputs =
      [
        B.input_route ~device:"AGG" ~prefix:"99.0.1.0/24" ~as_path:[ 70; 80 ] ();
        B.input_route ~device:"AGG" ~prefix:"99.0.2.0/24" ~as_path:[ 70; 90 ] ();
      ]
    in
    let res = Route_sim.run model ~input_routes:inputs () in
    List.hd (find_routes res.Route_sim.rib ~device:"AGG" ~prefix:"99.0.0.0/16")
  in
  let agg_a = run "vendorA" and agg_b = run "vendorB" in
  check tstr "vendor A: empty path" "" (As_path.to_string agg_a.Route.as_path);
  check tstr "vendor B: common prefix" "70"
    (As_path.to_string agg_b.Route.as_path)

let test_ecmp_and_igp_cost () =
  (* Diamond: D hears 99/24 from two iBGP peers with equal attributes; the
     IGP costs decide.  Equal costs -> ECMP (the Figure 9 setup). *)
  let diamond sr_on_a =
    let b = B.create () in
    List.iter
      (fun (n, id) ->
        B.add_device b ~name:n ~vendor:"vendorA" ~asn:65000
          ~router_id:(B.ip id) ())
      [ ("A", "10.255.0.1"); ("Bx", "10.255.0.2"); ("C", "10.255.0.3") ];
    ignore (B.link b ~a:"A" ~b:"Bx" ~subnet:(pfx "10.1.0.0/31") ~cost:10 ());
    ignore (B.link b ~a:"A" ~b:"C" ~subnet:(pfx "10.2.0.0/31") ~cost:10 ());
    B.ibgp_loopback_session b ~a:"A" ~b:"Bx" ();
    B.ibgp_loopback_session b ~a:"A" ~b:"C" ();
    if sr_on_a then
      B.add_sr_policy b "A"
        { Types.sp_name = "TO_B"; sp_endpoint = B.ip "10.255.0.2";
          sp_color = 100; sp_segments = []; sp_preference = 100 };
    let model = B.build b in
    let inputs =
      [
        B.input_route ~device:"Bx" ~prefix:"99.0.0.0/24" ~nexthop:"10.255.0.2"
          ~as_path:[ 7018 ] ();
        B.input_route ~device:"C" ~prefix:"99.0.0.0/24" ~nexthop:"10.255.0.3"
          ~as_path:[ 7018 ] ();
      ]
    in
    let res = Route_sim.run model ~input_routes:inputs () in
    find_routes res.Route_sim.rib ~device:"A" ~prefix:"99.0.0.0/24"
  in
  (* no SR: equal IGP costs -> two ECMP routes *)
  let routes = diamond false in
  let installed =
    List.filter
      (fun (r : Route.t) ->
        match r.Route.route_type with
        | Route.Best | Route.Ecmp -> true
        | Route.Backup -> false)
      routes
  in
  check tint "two ECMP routes" 2 (List.length installed);
  (* with an SR policy to B on vendor A (sr_igp_cost_zero = true), the
     B route gets cost 0 and wins alone -- the Figure 9 vendor behaviour *)
  let routes_sr = diamond true in
  let installed_sr =
    List.filter
      (fun (r : Route.t) ->
        match r.Route.route_type with
        | Route.Best | Route.Ecmp -> true
        | Route.Backup -> false)
      routes_sr
  in
  check tint "SR collapses to one best" 1 (List.length installed_sr);
  check tbool "winner via B" true
    ((List.hd installed_sr).Route.peer = Some "Bx")

let test_isis_spf () =
  let b = B.create () in
  List.iter
    (fun (n, id) ->
      B.add_device b ~name:n ~vendor:"vendorA" ~asn:65000 ~router_id:(B.ip id)
        ())
    [ ("A", "1.1.1.1"); ("B", "2.2.2.2"); ("C", "3.3.3.3"); ("D", "4.4.4.4") ];
  ignore (B.link b ~a:"A" ~b:"B" ~subnet:(pfx "10.1.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"B" ~b:"D" ~subnet:(pfx "10.2.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"A" ~b:"C" ~subnet:(pfx "10.3.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"C" ~b:"D" ~subnet:(pfx "10.4.0.0/31") ~cost:30 ());
  (* the IGP read by device name *)
  let ix igp d = Option.get (Isis.index igp d) in
  let first_hops igp a d =
    List.map (Isis.name igp)
      (Isis.first_hops igp ~src:(ix igp a) ~dst:(ix igp d))
  in
  let igp = Isis.compute (B.topo b) (B.configs b) in
  check tbool "cost A->D" true
    (Isis.cost igp ~src:(ix igp "A") ~dst:(ix igp "D") = 20);
  check
    Alcotest.(list string)
    "single first hop via B" [ "B" ]
    (first_hops igp "A" "D");
  (* make both sides equal: ECMP first hops *)
  let b2 = B.create () in
  List.iter
    (fun (n, id) ->
      B.add_device b2 ~name:n ~vendor:"vendorA" ~asn:65000 ~router_id:(B.ip id)
        ())
    [ ("A", "1.1.1.1"); ("B", "2.2.2.2"); ("C", "3.3.3.3"); ("D", "4.4.4.4") ];
  ignore (B.link b2 ~a:"A" ~b:"B" ~subnet:(pfx "10.1.0.0/31") ~cost:10 ());
  ignore (B.link b2 ~a:"B" ~b:"D" ~subnet:(pfx "10.2.0.0/31") ~cost:10 ());
  ignore (B.link b2 ~a:"A" ~b:"C" ~subnet:(pfx "10.3.0.0/31") ~cost:10 ());
  ignore (B.link b2 ~a:"C" ~b:"D" ~subnet:(pfx "10.4.0.0/31") ~cost:10 ());
  let igp2 = Isis.compute (B.topo b2) (B.configs b2) in
  check
    Alcotest.(slist string String.compare)
    "ECMP first hops" [ "B"; "C" ]
    (first_hops igp2 "A" "D")

let test_ec_compression () =
  let b = line_network () in
  let model = B.build b in
  (* 10 input routes with identical attributes and no prefix-list to tell
     them apart -> few ECs *)
  let inputs =
    List.init 10 (fun i ->
        B.input_route ~device:"R1"
          ~prefix:(Printf.sprintf "99.%d.0.0/24" i)
          ~as_path:[ 7018 ] ())
  in
  let res = Route_sim.run model ~input_routes:inputs () in
  check tbool "compressed" true (res.Route_sim.ec_count < 10);
  (* results identical with and without ECs *)
  let res_plain = Route_sim.run ~use_ecs:false model ~input_routes:inputs () in
  check tbool "EC result equals plain result" true
    (Rib.equal res.Route_sim.rib res_plain.Route_sim.rib)

let test_traffic_forwarding () =
  let b = line_network () in
  let model = B.build b in
  let input =
    [ B.input_route ~device:"R3" ~prefix:"99.0.0.0/24" ~nexthop:"10.23.0.1"
        ~as_path:[ 7018 ] () ]
  in
  let res = Route_sim.run model ~input_routes:input () in
  let flow =
    Flow.make ~src:(B.ip "1.0.0.1") ~dst:(B.ip "99.0.0.7") ~ingress:"R1"
      ~volume:1e9 ()
  in
  let tres =
    Traffic_sim.run model ~rib:res.Route_sim.rib ~flows:[ flow ] ()
  in
  let fr = List.hd tres.Traffic_sim.flow_results in
  check tbool "delivered" true (fr.Traffic_sim.f_delivered > 0.99);
  let hops = (List.hd fr.Traffic_sim.f_paths).Traffic_sim.hops in
  check Alcotest.(list string) "path R1-R2-R3" [ "R1"; "R2"; "R3" ] hops;
  (* link loads on both hops *)
  let load k = Option.value (Hashtbl.find_opt tres.Traffic_sim.link_load k) ~default:0. in
  check (Alcotest.float 1.0) "load R1->R2" 1e9 (load ("R1", "R2"));
  check (Alcotest.float 1.0) "load R2->R3" 1e9 (load ("R2", "R3"))

let test_traffic_acl_drop () =
  let b = line_network () in
  (* R2 drops TCP/80 from 1.0.0.0/8 on its R1-facing interface *)
  B.update_config b "R2" (fun cfg ->
      let acl =
        { Types.acl_name = "BLOCK80";
          acl_entries =
            [
              { Types.ace_seq = 5; ace_action = Types.Deny;
                ace_src = Some (pfx "1.0.0.0/8"); ace_dst = None;
                ace_proto = Some 6; ace_dport = Some (80, 80) };
              { Types.ace_seq = 10; ace_action = Types.Permit; ace_src = None;
                ace_dst = None; ace_proto = None; ace_dport = None };
            ] }
      in
      let ifaces =
        List.map
          (fun (i : Types.iface_config) ->
            match i.Types.if_addr with
            | Some a when Ip.equal a (B.ip "10.12.0.1") ->
                { i with Types.if_acl_in = Some "BLOCK80" }
            | _ -> i)
          cfg.Types.dc_ifaces
      in
      { cfg with
        Types.dc_ifaces = ifaces;
        dc_acls = Types.Smap.add "BLOCK80" acl cfg.Types.dc_acls })
  ;
  let model = B.build b in
  let input =
    [ B.input_route ~device:"R3" ~prefix:"99.0.0.0/24" ~nexthop:"10.23.0.1"
        ~as_path:[ 7018 ] () ]
  in
  let res = Route_sim.run model ~input_routes:input () in
  let blocked =
    Flow.make ~src:(B.ip "1.0.0.1") ~dst:(B.ip "99.0.0.7") ~ingress:"R1"
      ~dport:80 ~volume:1e9 ()
  in
  let ok =
    Flow.make ~src:(B.ip "1.0.0.1") ~dst:(B.ip "99.0.0.7") ~ingress:"R1"
      ~dport:443 ~volume:1e9 ()
  in
  let tres =
    Traffic_sim.run model ~rib:res.Route_sim.rib ~flows:[ blocked; ok ] ()
  in
  match tres.Traffic_sim.flow_results with
  | [ fb; fo ] ->
      check tbool "blocked dropped" true (fb.Traffic_sim.f_dropped > 0.99);
      check tbool "ok delivered" true (fo.Traffic_sim.f_delivered > 0.99)
  | _ -> Alcotest.fail "expected two flow results"

let test_flow_ec_compression () =
  let b = line_network () in
  let model = B.build b in
  let input =
    [ B.input_route ~device:"R3" ~prefix:"99.0.0.0/24" ~nexthop:"10.23.0.1"
        ~as_path:[ 7018 ] () ]
  in
  let res = Route_sim.run model ~input_routes:input () in
  (* many flows to the same /24: one EC *)
  let flows =
    List.init 50 (fun i ->
        Flow.make ~src:(B.ip "1.0.0.1")
          ~dst:(B.ip (Printf.sprintf "99.0.0.%d" i))
          ~ingress:"R1" ~volume:1e6 ())
  in
  let tres = Traffic_sim.run model ~rib:res.Route_sim.rib ~flows () in
  check tint "one flow EC" 1 tres.Traffic_sim.ec_count;
  (* same loads as without ECs *)
  let tres2 =
    Traffic_sim.run ~use_ecs:false model ~rib:res.Route_sim.rib ~flows ()
  in
  let total tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0. in
  check (Alcotest.float 1.0) "loads agree"
    (total tres2.Traffic_sim.link_load)
    (total tres.Traffic_sim.link_load)

let test_change_plan_end_to_end () =
  (* apply a change plan that raises local-pref on R2's import; the best
     route at R2 must change accordingly *)
  let b = line_network () in
  let model = B.build b in
  let input =
    [ B.input_route ~device:"R1" ~prefix:"99.0.0.0/24" ~as_path:[ 7018 ] () ]
  in
  let block =
    {|route-map NEWPOL permit 10
 set local-preference 777
router bgp 65002
 neighbor 10.12.0.0 remote-as 65001
 neighbor 10.12.0.0 route-map NEWPOL in
|}
  in
  let cp = Hoyan_config.Change_plan.make "raise-lp" ~commands:[ ("R2", block) ] in
  let model', reports = Model.apply_change_plan model cp in
  List.iter
    (fun (r : Hoyan_config.Change_plan.apply_report) ->
      List.iter
        (fun i ->
          Printf.printf "apply error on %s: %s\n"
            r.Hoyan_config.Change_plan.ar_device
            (Hoyan_config.Change_plan.issue_to_string i))
        r.Hoyan_config.Change_plan.ar_issues;
      check tint "clean apply" 0
        (List.length r.Hoyan_config.Change_plan.ar_issues))
    reports;
  let res = Route_sim.run model' ~input_routes:input () in
  let r2 = find_routes res.Route_sim.rib ~device:"R2" ~prefix:"99.0.0.0/24" in
  check tint "lp changed by plan" 777 (Route.local_pref (List.hd r2))

let test_add_paths () =
  (* with additional-paths, a device advertises up to n paths, so the
     peer sees the ECMP alternatives too *)
  let run add_paths =
    let b = B.create () in
    B.add_device b ~name:"S1" ~vendor:"vendorA" ~asn:65101
      ~router_id:(B.ip "1.1.1.1") ();
    B.add_device b ~name:"S2" ~vendor:"vendorA" ~asn:65102
      ~router_id:(B.ip "2.2.2.2") ();
    B.add_device b ~name:"M" ~vendor:"vendorA" ~asn:65100
      ~router_id:(B.ip "3.3.3.3") ();
    B.add_device b ~name:"P" ~vendor:"vendorA" ~asn:65200
      ~router_id:(B.ip "4.4.4.4") ();
    let s1_m, m_s1 = B.link b ~a:"S1" ~b:"M" ~subnet:(pfx "10.1.0.0/31") () in
    let s2_m, m_s2 = B.link b ~a:"S2" ~b:"M" ~subnet:(pfx "10.2.0.0/31") () in
    let m_p, p_m = B.link b ~a:"M" ~b:"P" ~subnet:(pfx "10.3.0.0/31") () in
    B.bgp_session b ~a:"S1" ~b:"M" ~a_addr:s1_m ~b_addr:m_s1 ();
    B.bgp_session b ~a:"S2" ~b:"M" ~a_addr:s2_m ~b_addr:m_s2 ();
    B.bgp_session b ~a:"M" ~b:"P" ~a_addr:m_p ~b_addr:p_m ~add_paths ();
    let model = B.build b in
    let inputs =
      [
        B.input_route ~device:"S1" ~prefix:"99.0.0.0/24" ~as_path:[ 7 ] ();
        B.input_route ~device:"S2" ~prefix:"99.0.0.0/24" ~as_path:[ 8 ] ();
      ]
    in
    let rib = (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib in
    Rib.filter
      (fun (r : Route.t) ->
        String.equal r.Route.device "P"
        && Prefix.equal r.Route.prefix (pfx "99.0.0.0/24"))
      rib
  in
  check tint "without add-paths P sees one path" 1
    (List.length (Rib.to_list (run 0)));
  check tint "with add-paths 2 P sees both" 2
    (List.length (Rib.to_list (run 2)))

let test_vrf_leaking_semantics () =
  (* a route exported from vrf X with RT 100:1 appears in vrf Y importing
     that RT, carrying the export RT as a community; vendor A does not
     re-leak it into Z, vendor B does (Table 5) *)
  let run vendor =
    let b = B.create () in
    B.add_device b ~name:"PE" ~vendor ~asn:65000 ~router_id:(B.ip "1.1.1.1") ();
    B.add_vrf b "PE"
      { Types.vd_name = "vx"; vd_rd = "65000:1"; vd_import_rts = [];
        vd_export_rts = [ "100:1" ]; vd_export_policy = None };
    B.add_vrf b "PE"
      { Types.vd_name = "vy"; vd_rd = "65000:2"; vd_import_rts = [ "100:1" ];
        vd_export_rts = [ "200:1" ]; vd_export_policy = None };
    B.add_vrf b "PE"
      { Types.vd_name = "vz"; vd_rd = "65000:3"; vd_import_rts = [ "200:1" ];
        vd_export_rts = []; vd_export_policy = None };
    let model = B.build b in
    let inputs =
      [ B.input_route ~device:"PE" ~vrf:"vx" ~prefix:"99.0.0.0/24" () ]
    in
    Rib.to_list (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib
  in
  let vrf_has rib vrf =
    List.exists
      (fun (r : Route.t) ->
        String.equal r.Route.vrf vrf
        && Prefix.equal r.Route.prefix (pfx "99.0.0.0/24"))
      rib
  in
  let rib_a = run "vendorA" in
  check tbool "leaked into vy" true (vrf_has rib_a "vy");
  check tbool "A does not re-leak into vz" false (vrf_has rib_a "vz");
  (* the leaked copy carries the export RT as a community *)
  let leaked =
    List.find
      (fun (r : Route.t) -> String.equal r.Route.vrf "vy")
      rib_a
  in
  check tbool "export RT stamped" true
    (Community.Set.mem (B.comm "100:1") leaked.Route.communities);
  let rib_b = run "vendorB" in
  check tbool "B re-leaks into vz" true (vrf_has rib_b "vz")

(* --- the reference RIB ------------------------------------------------------ *)

module G = Hoyan_workload.Generator

(* One row with every field, so the digest below pins more than what
   [Route.to_string] prints. *)
let render_row (r : Route.t) =
  String.concat "|"
    [
      Route.to_string r;
      Route.source_to_string r.Route.source;
      string_of_int (Route.weight r);
      string_of_int r.Route.preference;
      string_of_int r.Route.igp_cost;
      Option.value r.Route.peer ~default:"-";
      Option.value r.Route.out_iface ~default:"-";
      string_of_int r.Route.tag;
    ]

let pin_of ?(domains = 1) params =
  let g = G.generate params in
  let res =
    Route_sim.run ~domains g.G.model ~input_routes:g.G.input_routes ()
  in
  check tint "shards" domains res.Route_sim.shards;
  let rows = List.map render_row (Rib.to_list res.Route_sim.rib) in
  let st = res.Route_sim.bgp_stats in
  ( List.length rows,
    [ st.Bgp.st_rounds; st.Bgp.st_messages; st.Bgp.st_selected ],
    Digest.to_hex (Digest.string (String.concat "\n" rows)) )

let tpin = Alcotest.(triple int (list int) string)

(* The from-scratch reference on [small] (seed 1), pinned: its canonical
   RIB rendered row by row, and the fixpoint's stats.  A faster kernel,
   EC expansion or merge must reproduce both exactly. *)
let test_reference_rib_pinned () =
  check tpin "small: rows, stats, digest"
    (2817, [ 6; 1464; 1265 ], "b12ea54c0f3efd3e615ae2f7566147d2")
    (pin_of G.small)

(* The same reference on [wan] (~100 devices, ~10k input routes): the
   corpus where export and delivery dominate the fixpoint.  (`wan_dcn`,
   2,775,256 rows, stats 7 / 1,540,402 / 1,160,884, digest
   3923640e702ea19a9120e832fdd1d6ed, is too slow for the suite and is
   checked by hand.) *)
let wan_pin =
  (324438, [ 6; 286654; 190001 ], "dabbe05941502ac3ec897f92c7c4b8de")

let test_reference_rib_pinned_wan () =
  check tpin "wan: rows, stats, digest" wan_pin (pin_of G.wan)

(* The same pin, converged as two prefix shards. *)
let test_reference_rib_pinned_wan_sharded () =
  check tpin "wan, 2 shards: rows, stats, digest" wan_pin
    (pin_of ~domains:2 G.wan)

(* [small] at generator seeds 2-25: other topologies, vendor mixes and
   announcement patterns through the same kernel. *)
let small_pins =
  [
    (2, 2477, [ 6; 1119; 1071 ], "aa3f63f2b92a631d83e6b9b2e9825fe9");
    (3, 2771, [ 6; 1410; 1252 ], "357c44e29914e43b81ef19ea6db08a50");
    (4, 2746, [ 6; 1369; 1227 ], "ee45d360299cc5d6eca9a1ea9d114942");
    (5, 2826, [ 6; 1380; 1274 ], "d99aa3b349c2d2ff967c525bf29ea4a3");
    (6, 2724, [ 6; 1335; 1219 ], "28d330c67ad7a108d03a3cf237c71737");
    (7, 2850, [ 6; 1444; 1286 ], "f22a5417a40e5613efeef524aafdde8b");
    (8, 2981, [ 6; 1522; 1354 ], "1d81dee0ac4dc5cafe9b8f656789d584");
    (9, 2929, [ 6; 1571; 1316 ], "fc203eb61c7fb6ce7a132d6038395626");
    (10, 2665, [ 6; 1281; 1188 ], "3c25de2df6a62e532aebb79142b47c0d");
    (11, 2841, [ 6; 1295; 1235 ], "21048a927a297df046e4ceb1a0afad54");
    (12, 2908, [ 6; 1404; 1274 ], "f167f4158e34186e392aff93a42d83ef");
    (13, 2692, [ 6; 1219; 1213 ], "80151283304900ba78afcaf1b09436b0");
    (14, 2876, [ 6; 1378; 1287 ], "8438b27a3fd1bedda6146e43e27be9f4");
    (15, 2637, [ 6; 1167; 1172 ], "f3820258fad4ecb3a896544864df8f0a");
    (16, 2843, [ 6; 1456; 1271 ], "f9314f2ea2451ad57f12727db02ccc93");
    (17, 2876, [ 6; 1374; 1292 ], "9b058a94d656b07c1ad3c89edd715eda");
    (18, 2727, [ 6; 1304; 1225 ], "bffcf6dd9f706b3317d7b512fd809036");
    (19, 2981, [ 6; 1408; 1335 ], "791b97d318a104e8b15dc35210bb7996");
    (20, 2746, [ 6; 1300; 1233 ], "460134e4533dfdc17098e6b4b4599a39");
    (21, 2873, [ 6; 1552; 1269 ], "afbb8b79b3f955a8e2edd6e8a35670a3");
    (22, 2965, [ 6; 1466; 1344 ], "98e5c9fa3266bfe4940ff20d6b14a471");
    (23, 2896, [ 6; 1362; 1269 ], "665a11419033b8e0befe42309bae9444");
    (24, 2877, [ 6; 1549; 1301 ], "c5892c687dac6284655b56b94d57f868");
    (25, 2873, [ 6; 1399; 1291 ], "43aeb8651529f854edc80a691ff0e529");
  ]

let test_reference_rib_pinned_seeds () =
  List.iter
    (fun (seed, rows, stats, digest) ->
      check tpin
        (Printf.sprintf "small seed %d" seed)
        (rows, stats, digest)
        (pin_of { G.small with G.g_seed = seed }))
    small_pins

(* One route reflector whose default-VRF sessions differ pairwise in
   exactly one export-relevant attribute, so any sharing of export work
   across sessions that keys on too little shows up as a wrong
   neighbour RIB:
   - X1 vs X2 / X3: export policy none vs defined (sets MED) vs undefined;
   - X1 vs Y1 and Y1 vs Y2: iBGP vs eBGP, and no policy vs one that
     overwrites the AS path (the "adding own ASN" VSB);
   - X1 vs X4: RR client vs non-client;
   - X1 vs X5: next-hop-self;
   - X1 vs X6: add-paths 2 (p5 is ECMP at the RR);
   - X1 vs C0, X4 vs N0, Y2 vs E0 / E1: only the peer a route was
     learned from differs (split horizon).
   p1 comes from client C0, p2 from non-client N0, p5 from eBGP peers E0
   and E1, p6 from E0; p3 (NO_EXPORT) and p4 (NO_ADVERTISE) are
   injected at the RR itself.  Under vendor B the RR denies on a
   missing eBGP export policy and on an undefined one, and does not
   prepend its own ASN after an AS-path overwrite; vendor A does all
   three the other way. *)
let test_export_groups () =
  let run rr_vendor =
    let b = B.create () in
    let dev name asn rid vendor =
      B.add_device b ~name ~vendor ~asn ~router_id:(B.ip rid) ()
    in
    dev "RR" 65000 "10.255.0.1" rr_vendor;
    List.iteri
      (fun i n -> dev n 65000 (Printf.sprintf "10.255.0.%d" (i + 10)) "vendorA")
      [ "C0"; "N0"; "X1"; "X2"; "X3"; "X4"; "X5"; "X6" ];
    List.iteri
      (fun i (n, asn) ->
        dev n asn (Printf.sprintf "10.255.1.%d" (i + 10)) "vendorA")
      [ ("E0", 65100); ("E1", 65101); ("Y1", 65200); ("Y2", 65200) ];
    let links = Hashtbl.create 16 in
    List.iteri
      (fun i n ->
        Hashtbl.replace links n
          (B.link b ~a:"RR" ~b:n
             ~subnet:(pfx (Printf.sprintf "10.0.%d.0/31" (i + 1)))
             ()))
      [ "C0"; "N0"; "X1"; "X2"; "X3"; "X4"; "X5"; "X6"; "E0"; "E1"; "Y1"; "Y2" ];
    B.add_policy b "RR" (B.policy "PASS" [ B.node 10 ]);
    B.add_policy b "RR"
      (B.policy "SET_MED" [ B.node 10 ~sets:[ Types.Set_med 50 ] ]);
    B.add_policy b "RR"
      (B.policy "OVERWRITE"
         [ B.node 10 ~sets:[ Types.Set_aspath_overwrite [ 64999 ] ] ]);
    let ibgp ?(client = true) ?export ?(nhs = false) ?(add_paths = 0) n =
      B.ibgp_loopback_session b ~a:"RR" ~b:n ~a_rr_client:client
        ?a_export:export ~a_next_hop_self:nhs ~add_paths ()
    in
    let ebgp ?import ?export n =
      let a_addr, b_addr = Hashtbl.find links n in
      B.bgp_session b ~a:"RR" ~b:n ~a_addr ~b_addr ?a_import:import
        ?a_export:export ()
    in
    ibgp "C0";
    ibgp ~client:false "N0";
    ibgp "X1";
    ibgp ~export:"SET_MED" "X2";
    ibgp ~export:"UNDEFINED" "X3";
    ibgp ~client:false "X4";
    ibgp ~nhs:true "X5";
    ibgp ~add_paths:2 "X6";
    ebgp ~import:"PASS" ~export:"OVERWRITE" "E0";
    ebgp ~import:"PASS" ~export:"OVERWRITE" "E1";
    ebgp "Y1";
    ebgp ~export:"OVERWRITE" "Y2";
    let input ?(communities = []) device rid p asn =
      B.input_route ~device ~prefix:p ~nexthop:rid ~as_path:[ asn ]
        ~communities ()
    in
    let inputs =
      [
        input "C0" "10.255.0.10" "99.1.0.0/24" 7001;
        input "N0" "10.255.0.11" "99.2.0.0/24" 7002;
        input "RR" "10.255.0.1" "99.3.0.0/24" 7003 ~communities:[ "65535:65281" ];
        input "RR" "10.255.0.1" "99.4.0.0/24" 7004 ~communities:[ "65535:65282" ];
        input "E0" "10.255.1.10" "99.5.0.0/24" 7005;
        input "E1" "10.255.1.11" "99.5.0.0/24" 7005;
        input "E0" "10.255.1.10" "99.6.0.0/24" 7006;
      ]
    in
    let rib = (Route_sim.run (B.build b) ~input_routes:inputs ()).Route_sim.rib in
    (* what each neighbour holds from the RR: prefix, next hop, AS path, MED *)
    let heard n =
      List.filter_map
        (fun (r : Route.t) ->
          if
            String.equal r.Route.device n
            && Option.equal String.equal r.Route.peer (Some "RR")
          then
            Some
              (Printf.sprintf "%s %s [%s] %d"
                 (Prefix.to_string r.Route.prefix)
                 (Route.nexthop_string r)
                 (As_path.to_string r.Route.as_path)
                 (Route.med r))
          else None)
        (Rib.to_list rib)
      |> List.sort compare |> String.concat "; "
    in
    List.map
      (fun n -> (n, heard n))
      [ "C0"; "N0"; "X1"; "X2"; "X3"; "X4"; "X5"; "X6"; "E0"; "E1"; "Y1"; "Y2" ]
  in
  (* the RR's selected route per prefix: next hop and AS path as the RR
     holds them (p5 twice: the E0 best and the E1 ECMP path) *)
  let held =
    [
      ("1", ("10.255.0.10", "7001"));
      ("2", ("10.255.0.11", "7002"));
      ("3", ("10.255.0.1", "7003"));
      ("5", ("10.0.9.1", "65100 7005"));
      ("5+", ("10.0.10.1", "65101 7005"));
      ("6", ("10.0.9.1", "65100 7006"));
    ]
  in
  let row p nh path med =
    Printf.sprintf "99.%c.0.0/24 %s [%s] %d" p.[0] nh path med
  in
  (* iBGP: AS path kept; next hop kept unless [nh] (next-hop-self) *)
  let ibgp ?nh ?(med = 0) ps =
    List.map
      (fun p ->
        let held_nh, path = List.assoc p held in
        row p (Option.value nh ~default:held_nh) path med)
      ps
  in
  (* eBGP: next hop is the RR's link address, AS path as given *)
  let ebgp nh path ps = List.map (fun p -> row p nh path 0) ps in
  let expect rows = List.sort compare rows |> String.concat "; " in
  let common vendor_a =
    [
      ("C0", ibgp [ "2"; "3"; "5"; "6" ]);
      ("N0", ibgp [ "1"; "3"; "5"; "6" ]);
      ("X1", ibgp [ "1"; "2"; "3"; "5"; "6" ]);
      ("X2", ibgp ~med:50 [ "1"; "2"; "3"; "5"; "6" ]);
      ("X3", if vendor_a then ibgp [ "1"; "2"; "3"; "5"; "6" ] else []);
      ("X4", ibgp [ "1"; "3"; "5"; "6" ]);
      ("X5", ibgp ~nh:"10.255.0.1" [ "1"; "2"; "3"; "5"; "6" ]);
      ("X6", ibgp [ "1"; "2"; "3"; "5"; "5+"; "6" ]);
    ]
  in
  let overwritten = "64999" and prepended = "65000 64999" in
  let expected_b =
    common false
    @ [
        ("E0", ebgp "10.0.9.0" overwritten [ "1"; "2" ]);
        ("E1", ebgp "10.0.10.0" overwritten [ "1"; "2"; "5"; "6" ]);
        ("Y1", []);
        ("Y2", ebgp "10.0.12.0" overwritten [ "1"; "2"; "5"; "6" ]);
      ]
  in
  let expected_a =
    common true
    @ [
        ("E0", ebgp "10.0.9.0" prepended [ "1"; "2" ]);
        ("E1", ebgp "10.0.10.0" prepended [ "1"; "2"; "5"; "6" ]);
        ( "Y1",
          [
            row "1" "10.0.11.0" "65000 7001" 0;
            row "2" "10.0.11.0" "65000 7002" 0;
            row "5" "10.0.11.0" "65000 65100 7005" 0;
            row "6" "10.0.11.0" "65000 65100 7006" 0;
          ] );
        ("Y2", ebgp "10.0.12.0" prepended [ "1"; "2"; "5"; "6" ]);
      ]
  in
  List.iter
    (fun (vendor, expected) ->
      check
        Alcotest.(list (pair string string))
        vendor
        (List.map (fun (n, rows) -> (n, expect rows)) expected)
        (run vendor))
    [ ("vendorB", expected_b); ("vendorA", expected_a) ]

(* --- prefix shards ---------------------------------------------------------- *)

(* A full run split into [d] prefix shards must give the unsplit run's
   RIB, stats, class count and compression.  The domain counts are
   fixed here, not read from the machine, so every box runs the same
   shards. *)
let assert_shards_agree ?(ds = [ 2; 3; 5 ]) msg model inputs =
  let run d = Route_sim.run ~domains:d model ~input_routes:inputs () in
  let one = run 1 in
  let stats (r : Route_sim.result) =
    let st = r.Route_sim.bgp_stats in
    [ st.Bgp.st_rounds; st.Bgp.st_messages; st.Bgp.st_selected ]
  in
  List.iter
    (fun d ->
      let r = run d in
      let m = Printf.sprintf "%s, %d domains: " msg d in
      check tbool (m ^ "split") true (r.Route_sim.shards >= 2);
      check tbool (m ^ "RIB") true
        (Rib.equal one.Route_sim.rib r.Route_sim.rib);
      check Alcotest.(list int) (m ^ "stats") (stats one) (stats r);
      check tint (m ^ "classes") one.Route_sim.ec_count r.Route_sim.ec_count;
      check (Alcotest.float 0.) (m ^ "compression") one.Route_sim.compression
        r.Route_sim.compression)
    ds

let test_shards_agree_small_seeds () =
  for seed = 1 to 25 do
    let g = G.generate { G.small with G.g_seed = seed } in
    assert_shards_agree
      (Printf.sprintf "small seed %d" seed)
      g.G.model g.G.input_routes
  done

(* A random eBGP network with every coupling between prefixes that a
   shard must keep whole: nested aggregates (plain, summary-only, with
   an AS set) on several devices, an aggregate inside a VRF that leaks
   into it, and IS-IS-redistributed loopbacks under an aggregate.  Two
   prefixes (150.x, 160.x) lie outside every aggregate, so there are
   always at least two shard keys.  Inputs share attributes per device,
   so classes have several members. *)
let sharded_network seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let n = 4 + Random.State.int rng 4 in
  let name i = Printf.sprintf "R%d" i in
  let b = B.create () in
  for i = 0 to n - 1 do
    B.add_device b ~name:(name i)
      ~vendor:(pick [ "vendorA"; "vendorB" ])
      ~asn:(65000 + i)
      ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
      ();
    B.add_policy b (name i) (B.policy "PASS" [ B.node 10 ])
  done;
  let links = ref 0 in
  let connect i j =
    let a_addr, b_addr =
      B.link b ~a:(name i) ~b:(name j)
        ~subnet:(pfx (Printf.sprintf "10.0.%d.0/31" !links))
        ()
    in
    incr links;
    B.bgp_session b ~a:(name i) ~b:(name j) ~a_addr ~b_addr ~a_import:"PASS"
      ~a_export:"PASS" ~b_import:"PASS" ~b_export:"PASS" ()
  in
  for i = 1 to n - 1 do
    connect i (Random.State.int rng i)
  done;
  if n > 4 then connect 0 (n - 1);
  let dev () = name (Random.State.int rng n) in
  List.iter
    (fun p ->
      if Random.State.int rng 3 > 0 then
        B.add_aggregate b (dev ()) ~as_set:(Random.State.bool rng)
          ~summary_only:(Random.State.bool rng) (pfx p))
    [ "100.0.0.0/12"; "100.0.0.0/16"; "100.0.0.0/20"; "100.0.16.0/20";
      "100.1.0.0/16" ];
  (* loopbacks: redistributed IS-IS host routes under one aggregate *)
  if Random.State.bool rng then begin
    B.add_redistribute b (dev ()) Route.Isis;
    B.add_aggregate b (dev ()) (pfx "10.255.0.0/16")
  end;
  (* VRF leaking on one device, with an aggregate in the importing VRF *)
  let pe = dev () in
  B.add_vrf b pe
    { Types.vd_name = "vx"; vd_rd = "65000:1"; vd_import_rts = [];
      vd_export_rts = [ "100:1" ]; vd_export_policy = None };
  B.add_vrf b pe
    { Types.vd_name = "vy"; vd_rd = "65000:2"; vd_import_rts = [ "100:1" ];
      vd_export_rts = []; vd_export_policy = None };
  B.add_aggregate b pe ~vrf:"vy" ~summary_only:(Random.State.bool rng)
    (pfx "100.0.0.0/16");
  B.add_network b (dev ()) (pfx "160.0.0.0/24");
  let inputs =
    List.init
      (6 + Random.State.int rng 10)
      (fun k ->
        let device = dev () in
        let prefix =
          match Random.State.int rng 4 with
          | 0 -> Printf.sprintf "100.0.%d.0/24" (Random.State.int rng 32)
          | 1 -> Printf.sprintf "100.%d.0.0/24" (Random.State.int rng 3)
          | 2 -> Printf.sprintf "150.%d.0.0/24" k
          | _ -> Printf.sprintf "100.0.%d.0/24" (k mod 4)
        in
        B.input_route ~device ~prefix
          ~as_path:[ 7000 + String.length device + (k mod 2) ]
          ())
    @ [ B.input_route ~device:pe ~vrf:"vx" ~prefix:"100.0.5.0/24" ();
        B.input_route ~device:pe ~vrf:"vx" ~prefix:"150.99.0.0/24" ();
        B.input_route ~device:(dev ()) ~prefix:"150.200.0.0/24" () ]
  in
  (B.build b, inputs)

let prop_shards_agree =
  QCheck.Test.make ~count:60
    ~name:"sharded full run = unsplit run (generated aggregates, VRFs)"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let model, inputs = sharded_network seed in
      assert_shards_agree (Printf.sprintf "network %d" seed) model inputs;
      true)

(* Canonicalising drops no row: without EC expansion the RIB is the
   loc-RIB rows plus the local tables, so a duplicate would show as a
   shortfall here. *)
let test_canonical_rib_drops_nothing () =
  List.iter
    (fun (name, params) ->
      let g = G.generate params in
      let res =
        Route_sim.run ~use_ecs:false g.G.model ~input_routes:g.G.input_routes ()
      in
      let locals =
        Model.Smap.fold
          (fun _ rs n -> n + List.length rs)
          g.G.model.Model.local_tables 0
      in
      check tint name
        (res.Route_sim.bgp_stats.Bgp.st_selected + locals)
        (List.length (Rib.to_list res.Route_sim.rib)))
    [ ("small", G.small); ("wan/800", { G.wan with G.g_prefixes = 800 }) ]

let suite =
  [
    ("linear propagation", `Quick, test_linear_propagation);
    ("AS loop prevention", `Quick, test_as_loop_prevention);
    ("import policy blocks", `Quick, test_import_policy_blocks);
    ("route reflection", `Quick, test_route_reflection);
    ("local-pref decision", `Quick, test_local_pref_decision);
    ("aggregation + summary-only", `Quick, test_aggregation);
    ("aggregation VSB common prefix", `Quick, test_aggregation_vsb_common_prefix);
    ("ECMP and SR igp-cost VSB", `Quick, test_ecmp_and_igp_cost);
    ("isis spf + ecmp", `Quick, test_isis_spf);
    ("route EC compression", `Quick, test_ec_compression);
    ("traffic forwarding", `Quick, test_traffic_forwarding);
    ("traffic ACL drop", `Quick, test_traffic_acl_drop);
    ("flow EC compression", `Quick, test_flow_ec_compression);
    ("change plan end to end", `Quick, test_change_plan_end_to_end);
    ("add-path advertisement", `Quick, test_add_paths);
    ("vrf leaking semantics", `Quick, test_vrf_leaking_semantics);
    ("reference RIB pinned (small)", `Quick, test_reference_rib_pinned);
    ("canonical RIB drops no row", `Quick, test_canonical_rib_drops_nothing);
    ("reference RIB pinned (wan)", `Quick, test_reference_rib_pinned_wan);
    ("reference RIB pinned (small, seeds 2-25)", `Quick,
      test_reference_rib_pinned_seeds);
    ("export groups: one attribute apart", `Quick, test_export_groups);
    ("reference RIB pinned (wan, 2 shards)", `Quick,
      test_reference_rib_pinned_wan_sharded);
    ("shards = unsplit (small, seeds 1-25)", `Quick,
      test_shards_agree_small_seeds);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4040 |])
      prop_shards_agree;
  ]
