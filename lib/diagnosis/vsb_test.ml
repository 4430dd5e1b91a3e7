(** Differential testing of vendor-specific behaviours (Table 5).

    For each of the 16 Table-5 dimensions, a small scenario network is
    built whose device under test (DUT) exercises exactly that behaviour.
    The scenario is simulated twice — once with the DUT's base vendor
    profile, once with a profile flipped in only that dimension — and the
    resulting global RIBs are diffed.  A non-empty diff means the
    dimension is behaviourally observable: exactly the situation where
    Hoyan's model of one vendor silently mispredicts another, which the
    accuracy framework then catches via RIB cross-validation (§5).

    This is the differential-testing methodology the paper points to
    ([McKeeman 1998], §7 "Automatic testing framework for accuracy"). *)

open Hoyan_net
module B = Hoyan_workload.Builder
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Route_sim = Hoyan_sim.Route_sim

type scenario = {
  sc_dimension : string;
  sc_build : vendor:string -> B.t * Route.t list; (* builder + input routes *)
}

let pfx = Prefix.of_string_exn

(* DUT receives one eBGP route from a fixed vendor-A peer; the import
   policy attachment varies per scenario. *)
let ebgp_ingress ~vendor ~import ~policies ~prefix_lists =
  let b = B.create () in
  B.add_device b ~name:"PEER" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"DUT" ~vendor ~asn:65002 ~router_id:(B.ip "2.2.2.2") ();
  let p, d = B.link b ~a:"PEER" ~b:"DUT" ~subnet:(pfx "10.0.0.0/31") () in
  List.iter (fun rp -> B.add_policy b "DUT" rp) policies;
  List.iter (fun pl -> B.add_prefix_list b "DUT" pl) prefix_lists;
  B.bgp_session b ~a:"PEER" ~b:"DUT" ~a_addr:p ~b_addr:d ?b_import:import ();
  let input =
    [ B.input_route ~device:"PEER" ~prefix:"99.0.0.0/24" ~as_path:[ 7018 ] () ]
  in
  (b, input)

let scenarios : scenario list =
  [
    {
      sc_dimension = "missing route policy";
      sc_build =
        (fun ~vendor ->
          ebgp_ingress ~vendor ~import:None ~policies:[] ~prefix_lists:[]);
    };
    {
      sc_dimension = "undefined route policy";
      sc_build =
        (fun ~vendor ->
          ebgp_ingress ~vendor ~import:(Some "UNDEFINED") ~policies:[]
            ~prefix_lists:[]);
    };
    {
      sc_dimension = "default route policy";
      sc_build =
        (fun ~vendor ->
          (* the only node matches tag 42, which no route carries *)
          ebgp_ingress ~vendor ~import:(Some "P")
            ~policies:[ B.policy "P" [ B.node 10 ~matches:[ Types.Match_tag 42 ] ] ]
            ~prefix_lists:[]);
    };
    {
      sc_dimension = "undefined policy filter";
      sc_build =
        (fun ~vendor ->
          ebgp_ingress ~vendor ~import:(Some "P")
            ~policies:
              [ B.policy "P"
                  [ B.node 10 ~matches:[ Types.Match_prefix_list "MISSING" ] ] ]
            ~prefix_lists:[]);
    };
    {
      sc_dimension = "no explicit permit/deny";
      sc_build =
        (fun ~vendor ->
          ebgp_ingress ~vendor ~import:(Some "P")
            ~policies:[ B.policy "P" [ B.node ~action:None 10 ] ]
            ~prefix_lists:[]);
    };
    {
      sc_dimension = "default BGP preference";
      sc_build =
        (fun ~vendor ->
          (* accepted route's admin preference shows the vendor default *)
          ebgp_ingress ~vendor ~import:None ~policies:[] ~prefix_lists:[]);
    };
    {
      sc_dimension = "weight after redistribution";
      sc_build =
        (fun ~vendor ->
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65002
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_static b "DUT"
            { Types.st_prefix = pfx "99.0.0.0/24"; st_nexthop = None;
              st_iface = Some "Null0"; st_preference = 1; st_tag = 0;
              st_vrf = Route.default_vrf };
          B.add_redistribute b "DUT" Route.Static;
          (b, []));
    };
    {
      sc_dimension = "adding own ASN";
      sc_build =
        (fun ~vendor ->
          (* DUT's export policy overwrites the AS path; the peer's view
             of the path depends on the VSB *)
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65002
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_device b ~name:"PEER" ~vendor:"vendorA" ~asn:65001
            ~router_id:(B.ip "1.1.1.1") ();
          let d, p = B.link b ~a:"DUT" ~b:"PEER" ~subnet:(pfx "10.0.0.0/31") () in
          B.add_policy b "DUT"
            (B.policy "OVR"
               [ B.node 10 ~sets:[ Types.Set_aspath_overwrite [ 64999 ] ] ]);
          B.bgp_session b ~a:"DUT" ~b:"PEER" ~a_addr:d ~b_addr:p
            ~a_export:"OVR" ();
          let input =
            [ B.input_route ~device:"DUT" ~prefix:"99.0.0.0/24"
                ~as_path:[ 7018 ] () ]
          in
          (b, input));
    };
    {
      sc_dimension = "common AS path prefix";
      sc_build =
        (fun ~vendor ->
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65002
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_aggregate b "DUT" (pfx "99.0.0.0/16");
          let input =
            [
              B.input_route ~device:"DUT" ~prefix:"99.0.1.0/24"
                ~as_path:[ 70; 80 ] ();
              B.input_route ~device:"DUT" ~prefix:"99.0.2.0/24"
                ~as_path:[ 70; 90 ] ();
            ]
          in
          (b, input));
    };
    {
      sc_dimension = "VRF export policy";
      sc_build =
        (fun ~vendor ->
          (* a global iBGP route leaked into a VRF that imports "global"
             and whose export policy denies community 66:6 *)
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65000
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_device b ~name:"IB" ~vendor:"vendorA" ~asn:65000
            ~router_id:(B.ip "1.1.1.1") ();
          ignore (B.link b ~a:"IB" ~b:"DUT" ~subnet:(pfx "10.0.0.0/31") ());
          B.ibgp_loopback_session b ~a:"IB" ~b:"DUT" ();
          B.add_community_list b "DUT"
            { Types.cl_name = "C66";
              cl_entries =
                [ { Types.ce_seq = 5; ce_action = Types.Permit;
                    ce_members = [ B.comm "66:6" ] } ] };
          B.add_policy b "DUT"
            (B.policy "VEXP"
               [
                 B.node 10 ~action:(Some Types.Deny)
                   ~matches:[ Types.Match_community_list "C66" ];
                 B.node 20;
               ]);
          B.add_vrf b "DUT"
            { Types.vd_name = "cust"; vd_rd = "65000:1";
              vd_import_rts = [ "global" ]; vd_export_rts = [ "65000:99" ];
              vd_export_policy = Some "VEXP" };
          let input =
            [ B.input_route ~device:"IB" ~prefix:"99.0.0.0/24"
                ~nexthop:"1.1.1.1" ~communities:[ "66:6" ] () ]
          in
          (b, input));
    };
    {
      sc_dimension = "re-leaking routes";
      sc_build =
        (fun ~vendor ->
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65000
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_vrf b "DUT"
            { Types.vd_name = "vx"; vd_rd = "65000:1";
              vd_import_rts = []; vd_export_rts = [ "100:1" ];
              vd_export_policy = None };
          B.add_vrf b "DUT"
            { Types.vd_name = "vy"; vd_rd = "65000:2";
              vd_import_rts = [ "100:1" ]; vd_export_rts = [ "200:1" ];
              vd_export_policy = None };
          B.add_vrf b "DUT"
            { Types.vd_name = "vz"; vd_rd = "65000:3";
              vd_import_rts = [ "200:1" ]; vd_export_rts = [];
              vd_export_policy = None };
          let input =
            [ B.input_route ~device:"DUT" ~vrf:"vx" ~prefix:"99.0.0.0/24" () ]
          in
          (b, input));
    };
    {
      sc_dimension = "redistributing /32 route";
      sc_build =
        (fun ~vendor ->
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65002
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_device b ~name:"N" ~vendor:"vendorA" ~asn:65002
            ~router_id:(B.ip "1.1.1.1") ();
          (* the non-/31 interface produces the extra host /32 *)
          ignore (B.link b ~a:"DUT" ~b:"N" ~subnet:(pfx "10.0.0.0/31") ());
          B.update_config b "DUT" (fun cfg ->
              { cfg with
                Types.dc_ifaces =
                  { Types.if_name = "Lan0"; if_addr = Some (B.ip "172.16.0.1");
                    if_plen = 24; if_bandwidth = 10e9; if_acl_in = None }
                  :: cfg.Types.dc_ifaces });
          B.add_redistribute b "DUT" Route.Direct;
          (b, []));
    };
    {
      sc_dimension = "sending /32 route to peer";
      sc_build =
        (fun ~vendor ->
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65002
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_device b ~name:"PEER" ~vendor:"vendorA" ~asn:65001
            ~router_id:(B.ip "1.1.1.1") ();
          let d, p = B.link b ~a:"DUT" ~b:"PEER" ~subnet:(pfx "10.0.0.0/31") () in
          B.update_config b "DUT" (fun cfg ->
              { cfg with
                Types.dc_ifaces =
                  { Types.if_name = "Lan0"; if_addr = Some (B.ip "172.16.0.1");
                    if_plen = 24; if_bandwidth = 10e9; if_acl_in = None }
                  :: cfg.Types.dc_ifaces });
          B.add_redistribute b "DUT" Route.Direct;
          B.bgp_session b ~a:"DUT" ~b:"PEER" ~a_addr:d ~b_addr:p ();
          (b, []));
    };
    {
      sc_dimension = "IGP cost for SR";
      sc_build =
        (fun ~vendor ->
          (* the Figure-9 diamond: two iBGP paths with equal IGP costs;
             an SR policy towards one of them *)
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65000
            ~router_id:(B.ip "10.255.0.1") ();
          B.add_device b ~name:"Bx" ~vendor:"vendorA" ~asn:65000
            ~router_id:(B.ip "10.255.0.2") ();
          B.add_device b ~name:"Cx" ~vendor:"vendorA" ~asn:65000
            ~router_id:(B.ip "10.255.0.3") ();
          ignore (B.link b ~a:"DUT" ~b:"Bx" ~subnet:(pfx "10.1.0.0/31") ());
          ignore (B.link b ~a:"DUT" ~b:"Cx" ~subnet:(pfx "10.2.0.0/31") ());
          B.ibgp_loopback_session b ~a:"DUT" ~b:"Bx" ();
          B.ibgp_loopback_session b ~a:"DUT" ~b:"Cx" ();
          B.add_sr_policy b "DUT"
            { Types.sp_name = "TO_B"; sp_endpoint = B.ip "10.255.0.2";
              sp_color = 100; sp_segments = []; sp_preference = 100 };
          let input =
            [
              B.input_route ~device:"Bx" ~prefix:"99.0.0.0/24"
                ~nexthop:"10.255.0.2" ~as_path:[ 7018 ] ();
              B.input_route ~device:"Cx" ~prefix:"99.0.0.0/24"
                ~nexthop:"10.255.0.3" ~as_path:[ 7018 ] ();
            ]
          in
          (b, input));
    };
    {
      sc_dimension = "inheriting views";
      sc_build =
        (fun ~vendor ->
          (* DUT's link has no explicit isis cost; the device default (40)
             is inherited only on sub-view-inheriting vendors, changing
             the IGP cost recorded on the learned route *)
          let b = B.create () in
          B.add_device b ~name:"DUT" ~vendor ~asn:65000
            ~router_id:(B.ip "2.2.2.2") ();
          B.add_device b ~name:"E" ~vendor:"vendorA" ~asn:65000
            ~router_id:(B.ip "1.1.1.1") ();
          ignore
            (B.link b ~a:"DUT" ~b:"E" ~subnet:(pfx "10.0.0.0/31")
               ~no_isis_cost:true ());
          B.set_isis_default_cost b "DUT" 40;
          B.ibgp_loopback_session b ~a:"DUT" ~b:"E" ();
          let input =
            [ B.input_route ~device:"E" ~prefix:"99.0.0.0/24"
                ~nexthop:"1.1.1.1" ~as_path:[ 7018 ] () ]
          in
          (b, input));
    };
    {
      sc_dimension = "device isolation";
      sc_build =
        (fun ~vendor ->
          (* isolated DUT in the middle of an eBGP chain: policy-based
             isolation still imports, the dedicated knob blocks both ways *)
          let b = B.create () in
          B.add_device b ~name:"P1" ~vendor:"vendorA" ~asn:65001
            ~router_id:(B.ip "1.1.1.1") ();
          B.add_device b ~name:"DUT" ~vendor ~asn:65002
            ~router_id:(B.ip "2.2.2.2") ();
          let a, d = B.link b ~a:"P1" ~b:"DUT" ~subnet:(pfx "10.0.0.0/31") () in
          B.bgp_session b ~a:"P1" ~b:"DUT" ~a_addr:a ~b_addr:d ();
          B.set_isolated b "DUT";
          let input =
            [ B.input_route ~device:"P1" ~prefix:"99.0.0.0/24"
                ~as_path:[ 7018 ] () ]
          in
          (b, input));
    };
  ]

type detection = {
  det_dimension : string;
  det_detected : bool;
  det_diff_size : int; (* routes differing between the two simulations *)
}

(** Run a scenario under the base profile and under the per-dimension
    flipped profile, and diff the resulting global RIBs. *)
let test_dimension (sc : scenario) : detection =
  let base_profile = Vsb.vendor_a in
  let flipped = Vsb.flip base_profile sc.sc_dimension in
  Vsb.register flipped;
  let run vendor =
    let b, input = sc.sc_build ~vendor in
    (* the DUT's vendor string must follow the profile under test *)
    B.set_vendor b "DUT" vendor;
    let model = B.build b in
    (Route_sim.run model ~input_routes:input ()).Route_sim.rib
    |> Rib.filter (fun (r : Route.t) -> r.Route.proto = Route.Bgp)
  in
  let rib_base = run base_profile.Vsb.vendor in
  let rib_flip = run flipped.Vsb.vendor in
  let diff =
    Rib.length (Rib.diff rib_base rib_flip)
    + Rib.length (Rib.diff rib_flip rib_base)
  in
  {
    det_dimension = sc.sc_dimension;
    det_detected = diff > 0;
    det_diff_size = diff;
  }

(** Run the full Table-5 campaign. *)
let run_all () : detection list = List.map test_dimension scenarios
