(* Tests for the configuration model, the vendor parsers/printers, policy
   evaluation with VSBs, and change-plan application. *)

open Hoyan_net
open Hoyan_config

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let pfx = Prefix.of_string_exn
let ip = Ip.of_string_exn
let comm = Community.of_string_exn

(* --- filters ------------------------------------------------------------ *)

let test_prefix_list_semantics () =
  let entry seq action p ge le =
    { Types.pe_seq = seq; pe_action = action; pe_prefix = pfx p; pe_ge = ge;
      pe_le = le }
  in
  let pl =
    { Types.pl_name = "PL"; pl_family = Ip.Ipv4;
      pl_entries =
        [
          entry 5 Types.Permit "10.0.0.0/24" None None;
          entry 10 Types.Deny "10.0.0.0/8" None (Some 32);
          entry 15 Types.Permit "0.0.0.0/0" (Some 16) (Some 24);
        ] }
  in
  let eval p = Types.prefix_list_eval pl (pfx p) in
  check tbool "exact match" true (eval "10.0.0.0/24" = Some Types.Permit);
  check tbool "longer falls to deny" true (eval "10.0.0.0/25" = Some Types.Deny);
  check tbool "le range deny" true (eval "10.9.0.0/16" = Some Types.Deny);
  check tbool "ge/le window" true (eval "172.16.0.0/20" = Some Types.Permit);
  check tbool "below ge" true (eval "172.0.0.0/8" = None)

let test_community_list () =
  let cl =
    { Types.cl_name = "CL";
      cl_entries =
        [
          { Types.ce_seq = 5; ce_action = Types.Deny;
            ce_members = [ comm "666:666" ] };
          { Types.ce_seq = 10; ce_action = Types.Permit;
            ce_members = [ comm "100:1"; comm "200:2" ] };
        ] }
  in
  let eval cs =
    Types.community_list_eval cl
      (Community.Set.of_list (List.map comm cs))
  in
  check tbool "deny first" true (eval [ "666:666"; "100:1" ] = Some Types.Deny);
  check tbool "all members required" true (eval [ "100:1" ] = None);
  check tbool "permit" true (eval [ "100:1"; "200:2"; "1:1" ] = Some Types.Permit)

let test_acl () =
  let acl =
    { Types.acl_name = "A";
      acl_entries =
        [
          { Types.ace_seq = 5; ace_action = Types.Permit;
            ace_src = Some (pfx "10.0.0.0/8"); ace_dst = None;
            ace_proto = Some 6; ace_dport = Some (443, 443) };
          { Types.ace_seq = 10; ace_action = Types.Deny; ace_src = None;
            ace_dst = None; ace_proto = None; ace_dport = None };
        ] }
  in
  let eval ~src ~proto ~dport =
    Types.acl_eval acl ~src:(ip src) ~dst:(ip "1.1.1.1") ~proto ~dport
  in
  check tbool "permit https" true
    (eval ~src:"10.1.1.1" ~proto:6 ~dport:443 = Some Types.Permit);
  check tbool "wrong port denied" true
    (eval ~src:"10.1.1.1" ~proto:6 ~dport:80 = Some Types.Deny);
  check tbool "wrong src denied" true
    (eval ~src:"11.1.1.1" ~proto:6 ~dport:443 = Some Types.Deny)

(* --- policy evaluation and VSBs ----------------------------------------- *)

let route ?(prefix = "10.0.0.0/24") ?(communities = []) ?(as_path = []) () =
  Route.make ~device:"R" ~prefix:(pfx prefix)
    ~communities:(Community.Set.of_list (List.map comm communities))
    ~as_path:(As_path.of_asns as_path)
    ()

let cfg_with_policy nodes =
  let cfg = Types.empty ~device:"R" ~vendor:"vendorA" in
  { cfg with
    Types.dc_policies =
      Types.Smap.add "P" { Types.rp_name = "P"; rp_nodes = nodes }
        cfg.Types.dc_policies }

let node ?(action = Some Types.Permit) ?(matches = []) ?(sets = [])
    ?(goto = false) seq =
  { Types.pn_seq = seq; pn_action = action; pn_matches = matches;
    pn_sets = sets; pn_goto_next = goto }

let test_policy_basic () =
  let cfg = cfg_with_policy [ node 10 ~sets:[ Types.Set_local_pref 300 ] ] in
  let v = Policy.eval cfg Vsb.vendor_a (Some "P") (route ()) in
  check tbool "permitted" true (v.Policy.pv_action = Types.Permit);
  check tint "lp set" 300 (Route.local_pref v.Policy.pv_route);
  check tbool "matched node" true (v.Policy.pv_matched_node = Some 10)

let test_policy_vsb_missing () =
  let cfg = Types.empty ~device:"R" ~vendor:"vendorA" in
  let r = route () in
  (* vendor A accepts without a policy, vendor B does not *)
  check tbool "A: no policy accepts" true
    ((Policy.eval cfg Vsb.vendor_a None r).Policy.pv_action = Types.Permit);
  check tbool "B: no policy denies" true
    ((Policy.eval cfg Vsb.vendor_b None r).Policy.pv_action = Types.Deny);
  (* undefined policy name *)
  check tbool "A: undefined policy accepts" true
    ((Policy.eval cfg Vsb.vendor_a (Some "NOPE") r).Policy.pv_action
    = Types.Permit);
  check tbool "B: undefined policy denies" true
    ((Policy.eval cfg Vsb.vendor_b (Some "NOPE") r).Policy.pv_action
    = Types.Deny)

let test_policy_vsb_default_action () =
  (* route matching no node: vendor A denies, vendor B permits *)
  let cfg =
    cfg_with_policy
      [ node 10 ~matches:[ Types.Match_tag 42 ] ~sets:[] ]
  in
  let r = route () in
  check tbool "A: no match denies" true
    ((Policy.eval cfg Vsb.vendor_a (Some "P") r).Policy.pv_action = Types.Deny);
  check tbool "B: no match permits" true
    ((Policy.eval cfg Vsb.vendor_b (Some "P") r).Policy.pv_action = Types.Permit)

let test_policy_vsb_undefined_filter () =
  let cfg =
    cfg_with_policy [ node 10 ~matches:[ Types.Match_prefix_list "MISSING" ] ]
  in
  let r = route () in
  (* A: undefined filter matches everything -> permit; B: never matches ->
     falls through -> B's default-permit VSB then applies *)
  let va = Policy.eval cfg Vsb.vendor_a (Some "P") r in
  check tbool "A matches via node 10" true (va.Policy.pv_matched_node = Some 10);
  let vb = Policy.eval cfg Vsb.vendor_b (Some "P") r in
  check tbool "B does not match the node" true (vb.Policy.pv_matched_node = None)

let test_policy_vsb_no_explicit_action () =
  let cfg = cfg_with_policy [ node ~action:None 10 ] in
  let r = route () in
  check tbool "A: implicit permit" true
    ((Policy.eval cfg Vsb.vendor_a (Some "P") r).Policy.pv_action = Types.Permit);
  check tbool "B: implicit deny" true
    ((Policy.eval cfg Vsb.vendor_b (Some "P") r).Policy.pv_action = Types.Deny)

let test_policy_sets () =
  let cfg =
    cfg_with_policy
      [
        node 10
          ~sets:
            [
              Types.Set_communities (Types.Comm_add, [ comm "300:3" ]);
              Types.Set_med 50;
              Types.Set_aspath_prepend (65000, 2);
            ];
      ]
  in
  let r = route ~communities:[ "100:1" ] ~as_path:[ 1; 2 ] () in
  let v = Policy.eval cfg Vsb.vendor_a (Some "P") r in
  let r' = v.Policy.pv_route in
  check tstr "communities" "100:1,300:3"
    (Community.Set.to_string r'.Route.communities);
  check tint "med" 50 (Route.med r');
  check tstr "prepended" "65000 65000 1 2" (As_path.to_string r'.Route.as_path)

let test_policy_overwrite_flag () =
  let cfg =
    cfg_with_policy [ node 10 ~sets:[ Types.Set_aspath_overwrite [ 9; 9 ] ] ]
  in
  let v = Policy.eval cfg Vsb.vendor_a (Some "P") (route ~as_path:[ 1 ] ()) in
  check tbool "overwrote flag" true v.Policy.pv_aspath_overwritten;
  check tstr "overwritten path" "9 9"
    (As_path.to_string v.Policy.pv_route.Route.as_path)

let test_policy_goto_next () =
  let cfg =
    cfg_with_policy
      [
        node 10 ~sets:[ Types.Set_local_pref 200 ] ~goto:true;
        node 20 ~sets:[ Types.Set_med 7 ];
      ]
  in
  let v = Policy.eval cfg Vsb.vendor_a (Some "P") (route ()) in
  let r = v.Policy.pv_route in
  check tint "first node applied" 200 (Route.local_pref r);
  check tint "second node applied too" 7 (Route.med r)

let test_policy_ipv6_against_ipv4_list () =
  (* The Figure-10(b) quirk: an ip-prefix (v4) list matched against an
     IPv6 route.  Vendor B treats it as a match (permitting all IPv6);
     vendor A does not match. *)
  let pl =
    { Types.pl_name = "PL4"; pl_family = Ip.Ipv4;
      pl_entries =
        [ { Types.pe_seq = 5; pe_action = Types.Permit;
            pe_prefix = pfx "10.0.0.0/8"; pe_ge = None; pe_le = None } ] }
  in
  let cfg =
    let c =
      cfg_with_policy
        [ node 10 ~matches:[ Types.Match_prefix_list "PL4" ]
            ~sets:[ Types.Set_local_pref 999 ] ]
    in
    { c with Types.dc_prefix_lists = Types.Smap.add "PL4" pl c.Types.dc_prefix_lists }
  in
  let v6_route = route ~prefix:"2001:db8::/32" () in
  let vb = Policy.eval cfg Vsb.vendor_b (Some "P") v6_route in
  check tbool "B: v6 hits the v4 list node" true
    (vb.Policy.pv_matched_node = Some 10);
  check tint "B: lp mistakenly raised" 999 (Route.local_pref vb.Policy.pv_route);
  let va = Policy.eval cfg Vsb.vendor_a (Some "P") v6_route in
  check tbool "A: v6 does not hit the node" true
    (va.Policy.pv_matched_node = None)

(* --- parsers ------------------------------------------------------------ *)

let vendor_a_config =
  {|hostname CORE-1
!
interface Eth0
 ip address 10.0.0.1/31
 bandwidth 100000000000
 isis cost 15
!
ip prefix-list PL seq 5 permit 10.0.0.0/24
ip prefix-list PL seq 10 deny 0.0.0.0/0 le 32
ipv6 prefix-list PL6 seq 5 permit 2001:db8::/32
ip community-list CL seq 5 permit 100:1 200:2
ip as-path access-list AP seq 5 permit .* 123 .*
!
route-map RM permit 10
 match ip prefix-list PL
 set local-preference 300
 set community 300:1 additive
!
route-map RM deny 20
!
router isis
 net 49.0001.0001
!
router bgp 65001
 bgp router-id 1.1.1.1
 network 10.0.0.0/24
 aggregate-address 10.0.0.0/16 summary-only
 redistribute static route-map RM
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map RM in
 neighbor 10.0.0.2 next-hop-self
!
ip route 192.168.0.0/24 10.0.0.2 preference 5 tag 77
access-list ACL1 seq 5 permit tcp 10.0.0.0/8 any eq 443
pbr interface Eth0 acl ACL1 next-hop 10.0.0.9
|}

let test_parser_a () =
  let cfg, errors = Parser_a.parse ~device:"x" vendor_a_config in
  check tint "no errors" 0 (List.length errors);
  check tstr "hostname" "CORE-1" cfg.Types.dc_device;
  check tint "one interface" 1 (List.length cfg.Types.dc_ifaces);
  let i = List.hd cfg.Types.dc_ifaces in
  check tstr "iface addr" "10.0.0.1" (Ip.to_string (Option.get i.Types.if_addr));
  check tint "plen" 31 i.Types.if_plen;
  check tint "prefix lists" 2 (Types.Smap.cardinal cfg.Types.dc_prefix_lists);
  let pl = Option.get (Types.find_prefix_list cfg "PL") in
  check tint "PL entries" 2 (List.length pl.Types.pl_entries);
  check tbool "le parsed" true
    ((List.nth pl.Types.pl_entries 1).Types.pe_le = Some 32);
  let rm = Option.get (Types.find_policy cfg "RM") in
  check tint "RM nodes" 2 (List.length rm.Types.rp_nodes);
  check tbool "node 20 is deny" true
    ((List.nth rm.Types.rp_nodes 1).Types.pn_action = Some Types.Deny);
  check tint "bgp asn" 65001 cfg.Types.dc_bgp.Types.bgp_asn;
  let nb = List.hd cfg.Types.dc_bgp.Types.bgp_neighbors in
  check tbool "neighbor import" true (nb.Types.nb_import = Some "RM");
  check tbool "next-hop-self" true nb.Types.nb_next_hop_self;
  check tint "aggregates" 1 (List.length cfg.Types.dc_bgp.Types.bgp_aggregates);
  check tbool "summary-only" true
    (List.hd cfg.Types.dc_bgp.Types.bgp_aggregates).Types.ag_summary_only;
  check tint "statics" 1 (List.length cfg.Types.dc_statics);
  check tint "acl entries" 1
    (List.length (Option.get (Types.find_acl cfg "ACL1")).Types.acl_entries);
  check tint "pbr" 1 (List.length cfg.Types.dc_pbr);
  check tbool "isis on" true cfg.Types.dc_isis.Types.isis_enabled;
  check tint "isis iface cost" 15
    (List.hd cfg.Types.dc_isis.Types.isis_ifaces).Types.ii_cost

let vendor_b_config =
  {|sysname BORDER-2
#
interface Eth0
 ip address 10.0.0.2 31
 isis enable 1
 isis cost 20
#
ip ip-prefix PL index 5 permit 10.0.0.0 24 less-equal 32
ip ipv6-prefix PL6 index 5 permit 2001:db8:: 32
ip community-filter CF index 5 permit 100:1
ip as-path-filter AP index 5 permit .* 65000 .*
#
route-policy RP permit node 10
 if-match ip-prefix PL
 apply local-preference 200
 goto next-node
#
route-policy RP deny node 20
#
isis 1
 network-entity 49.0001.0002
#
bgp 65002
 router-id 2.2.2.2
 network 20.0.0.0 24
 peer 10.0.0.1 as-number 65001
 peer 10.0.0.1 route-policy RP import
 peer 10.0.0.1 reflect-client
#
ip route-static 172.16.0.0 16 10.0.0.1 preference 60 tag 0
#
acl name FILTER
 rule 5 permit tcp source 10.0.0.0/8 destination-port eq 80
#
|}

let test_parser_b () =
  let cfg, errors = Parser_b.parse ~device:"x" vendor_b_config in
  List.iter (fun e -> Printf.printf "ERR: %s\n" (Lexutil.error_to_string e)) errors;
  check tint "no errors" 0 (List.length errors);
  check tstr "sysname" "BORDER-2" cfg.Types.dc_device;
  check tstr "vendor" "vendorB" cfg.Types.dc_vendor;
  let pl = Option.get (Types.find_prefix_list cfg "PL") in
  check tbool "family v4" true (pl.Types.pl_family = Ip.Ipv4);
  check tbool "less-equal" true
    ((List.hd pl.Types.pl_entries).Types.pe_le = Some 32);
  let pl6 = Option.get (Types.find_prefix_list cfg "PL6") in
  check tbool "family v6" true (pl6.Types.pl_family = Ip.Ipv6);
  let rp = Option.get (Types.find_policy cfg "RP") in
  check tbool "goto next" true (List.hd rp.Types.rp_nodes).Types.pn_goto_next;
  let nb = List.hd cfg.Types.dc_bgp.Types.bgp_neighbors in
  check tbool "reflect client" true nb.Types.nb_rr_client;
  check tint "statics" 1 (List.length cfg.Types.dc_statics);
  check tbool "acl parsed" true (Types.find_acl cfg "FILTER" <> None)

let test_parser_b_ipprefix_family_trap () =
  (* "ip ip-prefix" with an IPv6 address: the vendor accepts the command
     but the entry is ineffective — the list exists, declared IPv4, with
     no usable entries.  This is the §6.1 operator mistake: combined with
     vendor B's "ip-prefix permits the other family" VSB, every IPv6
     route then sails through the policy node. *)
  let cfg, errors =
    Parser_b.parse ~device:"x" "ip ip-prefix X index 5 permit 2001:db8:: 32\n"
  in
  check tint "one error" 1 (List.length errors);
  (match Types.find_prefix_list cfg "X" with
  | Some pl ->
      check tbool "declared IPv4" true (pl.Types.pl_family = Ip.Ipv4);
      check tint "no usable entries" 0 (List.length pl.Types.pl_entries)
  | None -> Alcotest.fail "list should be declared")

let test_printer_roundtrip_a () =
  let cfg, errors = Parser_a.parse ~device:"x" vendor_a_config in
  check tint "parse clean" 0 (List.length errors);
  let text = Printer.A.print cfg in
  let cfg2, errors2 = Parser_a.parse ~device:"x" text in
  check tint "reparse clean" 0 (List.length errors2);
  (* compare rendered forms (canonical) *)
  check tstr "roundtrip stable" (Printer.A.print cfg) (Printer.A.print cfg2)

let test_printer_roundtrip_b () =
  let cfg, errors = Parser_b.parse ~device:"x" vendor_b_config in
  check tint "parse clean" 0 (List.length errors);
  let text = Printer.B.print cfg in
  let cfg2, errors2 = Parser_b.parse ~device:"x" text in
  check tint "reparse clean" 0 (List.length errors2);
  check tstr "roundtrip stable" (Printer.B.print cfg) (Printer.B.print cfg2)

let test_parser_flaws () =
  let text = "route-map RM permit 10\n set community 1:1 additive\n" in
  let cfg, _ = Parser_a.parse ~device:"x" text in
  let cfg_flawed, _ =
    Parser_a.parse ~flaws:[ Parser_a.Ignore_additive ] ~device:"x" text
  in
  let get_set c =
    (List.hd (Option.get (Types.find_policy c "RM")).Types.rp_nodes)
      .Types.pn_sets
  in
  (match (get_set cfg, get_set cfg_flawed) with
  | [ Types.Set_communities (Types.Comm_add, _) ],
    [ Types.Set_communities (Types.Comm_replace, _) ] ->
      ()
  | _ -> Alcotest.fail "flaw not reproduced");
  let text6 = "ipv6 prefix-list P6 seq 5 permit 2001:db8::/32\n" in
  let cfg6, errors6 =
    Parser_a.parse ~flaws:[ Parser_a.Drop_ipv6_prefix_lists ] ~device:"x" text6
  in
  check tbool "v6 lists dropped" true (Types.find_prefix_list cfg6 "P6" = None);
  (* the drop must be reported, never silent *)
  check tint "drop reported" 1 (List.length errors6);
  let e = List.hd errors6 in
  check tint "drop reported on its line" 1 e.Lexutil.err_line;
  check tbool "drop message names the list" true
    (let msg = e.Lexutil.err_msg in
     let re = Str.regexp_string "P6" in
     try ignore (Str.search_forward re msg 0); true with Not_found -> false)

let test_ipv6_prefix_lists_both_dialects () =
  (* vendor A *)
  let cfg, errors =
    Parser_a.parse ~device:"x"
      "ipv6 prefix-list P6 seq 5 permit 2001:db8::/32 le 48\n"
  in
  check tint "A: parses clean" 0 (List.length errors);
  let pl = Option.get (Types.find_prefix_list cfg "P6") in
  check tbool "A: family is ipv6" true (pl.Types.pl_family = Ip.Ipv6);
  (match pl.Types.pl_entries with
  | [ e ] ->
      check tstr "A: prefix" "2001:db8::/32" (Prefix.to_string e.Types.pe_prefix);
      check tbool "A: le kept" true (e.Types.pe_le = Some 48)
  | _ -> Alcotest.fail "A: expected one entry");
  (* vendor B *)
  let cfg, errors =
    Parser_b.parse ~device:"x"
      "ip ipv6-prefix P6 index 5 permit 2001:db8:: 32 less-equal 48\n"
  in
  check tint "B: parses clean" 0 (List.length errors);
  let pl = Option.get (Types.find_prefix_list cfg "P6") in
  check tbool "B: family is ipv6" true (pl.Types.pl_family = Ip.Ipv6);
  (match pl.Types.pl_entries with
  | [ e ] ->
      check tstr "B: prefix" "2001:db8::/32" (Prefix.to_string e.Types.pe_prefix);
      check tbool "B: le kept" true (e.Types.pe_le = Some 48)
  | _ -> Alcotest.fail "B: expected one entry")

let test_unknown_lines_reported () =
  let _, errors = Parser_a.parse ~device:"x" "frobnicate the network\n" in
  check tint "error recorded" 1 (List.length errors)

(* --- parser error paths -------------------------------------------------- *)

let test_error_line_numbers_a () =
  (* a bad line sandwiched between good ones must be reported with its own
     1-based line number, and parsing must continue past it *)
  let text =
    "hostname r1\n\
     ip prefix-list PL seq 5 permit not-a-prefix\n\
     ip prefix-list PL seq 10 permit 10.0.0.0/8\n\
     frobnicate 42\n"
  in
  let cfg, errors = Parser_a.parse ~device:"x" text in
  let lines = List.map (fun e -> e.Lexutil.err_line) errors |> List.sort compare in
  check Alcotest.(list int) "bad lines located" [ 2; 4 ] lines;
  let pl = Option.get (Types.find_prefix_list cfg "PL") in
  check tint "good entry survives" 1 (List.length pl.Types.pl_entries)

let test_error_line_numbers_b () =
  let text =
    "sysname r1\n\
     ip ip-prefix PL index 5 permit 10.0.0.0 99\n\
     ip ip-prefix PL index 10 permit 10.0.0.0 8\n\
     frobnicate 42\n"
  in
  let cfg, errors = Parser_b.parse ~device:"x" text in
  let lines = List.map (fun e -> e.Lexutil.err_line) errors |> List.sort compare in
  check Alcotest.(list int) "bad lines located" [ 2; 4 ] lines;
  let pl = Option.get (Types.find_prefix_list cfg "PL") in
  check tint "good entry survives" 1 (List.length pl.Types.pl_entries)

(* An IS-IS metric is a non-negative integer: a negative or non-integer
   [isis cost], [default-cost] or [circuit-cost] is a parse error of its
   line, under both dialects, and leaves the cost unset. *)
let test_isis_cost_domain () =
  let errs parse text =
    let cfg, errors = parse text in
    (cfg, List.map (fun e -> e.Lexutil.err_line) errors |> List.sort compare)
  in
  let costs (cfg : Types.t) =
    List.map (fun ii -> ii.Types.ii_cost) cfg.Types.dc_isis.Types.isis_ifaces
  in
  List.iter
    (fun (what, parse, text, want_lines) ->
      let cfg, lines = errs parse text in
      check Alcotest.(list int) (what ^ ": bad lines located") want_lines lines;
      check Alcotest.(list int) (what ^ ": no cost taken") [] (costs cfg);
      check Alcotest.(option int) (what ^ ": no default cost") None
        cfg.Types.dc_isis.Types.isis_default_cost)
    [
      ( "A negative", (fun t -> Parser_a.parse ~device:"x" t),
        "hostname r1\ninterface Eth0\n isis cost -100\n\
         router isis\n default-cost -1\n",
        [ 3; 5 ] );
      ( "A non-integer", (fun t -> Parser_a.parse ~device:"x" t),
        "hostname r1\ninterface Eth0\n isis cost 1O\n\
         router isis\n default-cost x\n",
        [ 3; 5 ] );
      ( "B negative", (fun t -> Parser_b.parse ~device:"x" t),
        "sysname r1\ninterface Eth0\n isis cost -100\n\
         isis 1\n circuit-cost -1\n",
        [ 3; 5 ] );
      ( "B non-integer", (fun t -> Parser_b.parse ~device:"x" t),
        "sysname r1\ninterface Eth0\n isis cost 1O\nisis 1\n circuit-cost x\n",
        [ 3; 5 ] );
    ];
  let cfg, lines =
    errs
      (fun t -> Parser_a.parse ~device:"x" t)
      "hostname r1\ninterface Eth0\n isis cost 0\n"
  in
  check Alcotest.(list int) "a zero cost parses" [] lines;
  check Alcotest.(list int) "a zero cost is taken" [ 0 ] (costs cfg)

let test_malformed_stanzas_no_crash () =
  (* truncated / garbled stanza headers and bodies: both parsers must
     report rather than raise *)
  let samples =
    [
      "route-map\n";
      "route-map RM permit ten\n match\n";
      "router bgp\n neighbor\n";
      "interface\n ip address banana\n";
      "ip prefix-list PL seq permit 10.0.0.0/8\n";
      "ip community-list CL seq 5 permit not:a:community\n";
      "vrf definition\n route-target import\n";
      "route-policy RP permit node\n apply\n";
      "bgp\n peer 1.2.3.4 as-number\n";
      "ip ip-prefix PL index 5 allow 10.0.0.0 8\n";
      "acl name\n rule 5 permit source\n";
    ]
  in
  List.iter
    (fun text ->
      let _, ea = Parser_a.parse ~device:"x" text in
      let _, eb = Parser_b.parse ~device:"x" text in
      check tbool "some parser rejects it" true
        (List.length ea > 0 || List.length eb > 0);
      List.iter
        (fun e -> check tbool "line in range" true (e.Lexutil.err_line >= 1))
        (ea @ eb))
    samples

let fuzz_parsers_never_crash =
  (* mutate lines of the known-good configs (token deletion, duplication,
     swaps, injected garbage) and feed the result to both parsers: they
     must never raise, and every reported error must carry a line number
     inside the input *)
  let mutate_line rand line =
    let toks = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
    let n = List.length toks in
    let drop i = List.filteri (fun j _ -> j <> i) toks in
    let toks =
      if n = 0 then [ "garbage" ]
      else
        match Random.State.int rand 5 with
        | 0 -> drop (Random.State.int rand n)
        | 1 -> List.nth toks (Random.State.int rand n) :: toks
        | 2 -> List.rev toks
        | 3 ->
            List.mapi
              (fun j t -> if j = Random.State.int rand n then "\xffgarbage" else t)
              toks
        | _ -> toks @ [ "9999999999999999999" ]
    in
    String.concat " " toks
  in
  let gen = QCheck.Gen.(pair (oneofl [ `A; `B ]) (int_bound 0x3FFFFFFF)) in
  QCheck.Test.make ~name:"mutated configs never crash the parsers" ~count:200
    (QCheck.make gen) (fun (vendor, seed) ->
      let rand = Random.State.make [| seed |] in
      let base =
        match vendor with `A -> vendor_a_config | `B -> vendor_b_config
      in
      let lines = String.split_on_char '\n' base in
      let nlines = List.length lines in
      let mutated =
        List.map
          (fun l ->
            if Random.State.int rand 3 = 0 then mutate_line rand l else l)
          lines
        |> String.concat "\n"
      in
      let _, errors =
        match vendor with
        | `A -> Parser_a.parse ~device:"x" mutated
        | `B -> Parser_b.parse ~device:"x" mutated
      in
      List.for_all
        (fun e -> e.Lexutil.err_line >= 1 && e.Lexutil.err_line <= nlines)
        errors)

(* --- change plans -------------------------------------------------------- *)

let test_change_plan_merge_and_delete () =
  let base, _ = Parser_a.parse ~device:"x" vendor_a_config in
  let block =
    {|route-map RM permit 15
 set metric 9
!
no route-map RM 20
ip prefix-list PL seq 7 permit 10.1.0.0/24
no ip route 192.168.0.0/24
|}
  in
  let cfg, report = Change_plan.apply_commands base block in
  check tint "no issues" 0 (List.length report.Change_plan.ar_issues);
  let rm = Option.get (Types.find_policy cfg "RM") in
  let seqs = List.map (fun n -> n.Types.pn_seq) rm.Types.rp_nodes in
  check Alcotest.(list int) "nodes 10,15 remain; 20 deleted" [ 10; 15 ] seqs;
  let pl = Option.get (Types.find_prefix_list cfg "PL") in
  check tint "PL grew" 3 (List.length pl.Types.pl_entries);
  check tint "static removed" 0 (List.length cfg.Types.dc_statics)

let test_change_plan_wrong_dialect () =
  (* vendor-B commands applied to a vendor-A device: everything errors and
     the config is unchanged -- Table 6's "wrong command format" risk *)
  let base, _ = Parser_a.parse ~device:"x" vendor_a_config in
  let block = "route-policy RP permit node 10\n apply local-preference 5\n" in
  let cfg, report = Change_plan.apply_commands base block in
  check tbool "errors reported" true
    (List.length (Change_plan.parse_issues report) > 0);
  check tbool "no new policy" true (Types.find_policy cfg "RP" = None)

(* An interface stanza overlays the fields it states: a cost-only block
   keeps the interface's address and bandwidth, a block stating an
   address replaces it. *)
let test_change_plan_iface_overlay () =
  let base, _ = Parser_a.parse ~device:"x" vendor_a_config in
  let eth0 cfg = Option.get (Types.iface cfg "Eth0") in
  let cost cfg =
    List.find_map
      (fun (i : Types.isis_iface) ->
        if String.equal i.Types.ii_name "Eth0" then Some i.Types.ii_cost
        else None)
      cfg.Types.dc_isis.Types.isis_ifaces
  in
  let cfg, report =
    Change_plan.apply_commands base "interface Eth0\n isis cost 5\n"
  in
  check tint "cost-only: no issues" 0 (List.length report.Change_plan.ar_issues);
  check tbool "cost-only: address kept" true
    ((eth0 cfg).Types.if_addr = (eth0 base).Types.if_addr
    && (eth0 cfg).Types.if_plen = 31);
  check tbool "cost-only: bandwidth kept" true
    ((eth0 cfg).Types.if_bandwidth = 100e9);
  check Alcotest.(option int) "cost-only: cost changed" (Some 5) (cost cfg);
  let cfg, _ =
    Change_plan.apply_commands base "interface Eth0\n ip address 10.9.0.1/30\n"
  in
  check tbool "address block: address replaced" true
    ((eth0 cfg).Types.if_addr = Ip.of_string "10.9.0.1"
    && (eth0 cfg).Types.if_plen = 30);
  check tbool "address block: bandwidth kept" true
    ((eth0 cfg).Types.if_bandwidth = 100e9);
  check Alcotest.(option int) "address block: cost kept" (Some 15) (cost cfg)

let test_change_plan_delete_typo () =
  let base, _ = Parser_a.parse ~device:"x" vendor_a_config in
  let cfg, report = Change_plan.apply_commands base "no route-map RMTYPO 10\n" in
  check tint "delete error" 1
    (List.length (Change_plan.delete_issues report));
  check tbool "config unchanged" true (Types.find_policy cfg "RM" <> None)

(* --- VSB table ------------------------------------------------------------ *)

let test_vsb_profiles_differ_on_all_16 () =
  List.iter
    (fun dim ->
      let a = Vsb.dimension_value Vsb.vendor_a dim in
      let b = Vsb.dimension_value Vsb.vendor_b dim in
      if String.equal a b then
        Alcotest.failf "profiles agree on %s (%s)" dim a)
    Vsb.dimension_names;
  check tint "16 dimensions" 16 (List.length Vsb.dimension_names)

let suite =
  [
    ("prefix list semantics", `Quick, test_prefix_list_semantics);
    ("community list", `Quick, test_community_list);
    ("acl evaluation", `Quick, test_acl);
    ("policy basic", `Quick, test_policy_basic);
    ("VSB: missing/undefined policy", `Quick, test_policy_vsb_missing);
    ("VSB: default action", `Quick, test_policy_vsb_default_action);
    ("VSB: undefined filter", `Quick, test_policy_vsb_undefined_filter);
    ("VSB: no explicit action", `Quick, test_policy_vsb_no_explicit_action);
    ("policy set clauses", `Quick, test_policy_sets);
    ("policy overwrite flag", `Quick, test_policy_overwrite_flag);
    ("policy goto-next", `Quick, test_policy_goto_next);
    ("VSB: ip-prefix vs ipv6 route", `Quick, test_policy_ipv6_against_ipv4_list);
    ("parser vendor A", `Quick, test_parser_a);
    ("parser vendor B", `Quick, test_parser_b);
    ("parser B family trap", `Quick, test_parser_b_ipprefix_family_trap);
    ("printer roundtrip A", `Quick, test_printer_roundtrip_a);
    ("printer roundtrip B", `Quick, test_printer_roundtrip_b);
    ("parser injected flaws", `Quick, test_parser_flaws);
    ("ipv6 prefix lists, both dialects", `Quick,
     test_ipv6_prefix_lists_both_dialects);
    ("unknown lines reported", `Quick, test_unknown_lines_reported);
    ("error line numbers A", `Quick, test_error_line_numbers_a);
    ("error line numbers B", `Quick, test_error_line_numbers_b);
    ("IS-IS cost domain", `Quick, test_isis_cost_domain);
    ("malformed stanzas never crash", `Quick, test_malformed_stanzas_no_crash);
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 4242 |])
      fuzz_parsers_never_crash;
    ("change plan merge+delete", `Quick, test_change_plan_merge_and_delete);
    ("change plan wrong dialect", `Quick, test_change_plan_wrong_dialect);
    ("change plan delete typo", `Quick, test_change_plan_delete_typo);
    ("VSB profiles differ on all 16", `Quick, test_vsb_profiles_differ_on_all_16);
    ("change plan interface overlay", `Quick, test_change_plan_iface_overlay);
  ]
