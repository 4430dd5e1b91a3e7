(* The cross-device semantic analysis (lib/analysis/semantic.ml): the
   control-plane graph, the propagation closure, and the static intent
   pre-checker.  The soundness contract under test: presence is proved
   only from exact origins (unconditional installs), absence only from
   the over-approximate closure — so every static verdict must agree
   with the full simulation on the same network. *)

open Hoyan_net
module B = Hoyan_workload.Builder
module G = Hoyan_workload.Generator
module Types = Hoyan_config.Types
module Policy = Hoyan_config.Policy
module Vsb = Hoyan_config.Vsb
module Cp = Hoyan_config.Change_plan
module D = Hoyan_analysis.Diagnostics
module Lint = Hoyan_analysis.Lint
module Semantic = Hoyan_analysis.Semantic
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Intents = Hoyan_core.Intents
module VR = Hoyan_core.Verify_request

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let pfx = Prefix.of_string_exn

let small = lazy (G.generate G.small)

let input_of (b : B.t) =
  Lint.make ~topo:(B.topo b) ~render:false (B.configs b)

let graph_of b = Semantic.build (input_of b)

(* --- clean generated corpus: zero semantic false positives ---------- *)

let test_clean_corpus () =
  let g = Lazy.force small in
  let diags =
    Semantic.analyze
      (Lint.make ~topo:g.G.model.Model.topo ~render:false
         g.G.model.Model.configs)
  in
  check
    Alcotest.(list string)
    "clean small corpus has zero semantic findings" []
    (List.map D.to_string diags)

let test_graph_stats () =
  let g = Lazy.force small in
  let graph =
    Semantic.build
      (Lint.make ~topo:g.G.model.Model.topo ~render:false
         g.G.model.Model.configs)
  in
  let s = graph.Semantic.g_stats in
  check tint "every topology device is a graph node"
    (List.length (Topology.devices g.G.model.Model.topo))
    s.Semantic.st_devices;
  check tbool "the corpus has reciprocal BGP sessions" true
    (s.Semantic.st_sessions > 0);
  check tint "no half-configured sessions" 0 s.Semantic.st_half_sessions;
  check tbool "the corpus has IS-IS adjacencies" true
    (s.Semantic.st_isis_adjacencies > 0);
  check tint "no VRF route-target edges" 0 s.Semantic.st_rt_edges

(* --- closure + pre-checker on a hand-built iBGP line ---------------- *)

(* X -- Y -- Z, one AS.  Without a route reflector, a route learned by Y
   from non-client X must not be re-advertised to Z. *)
let ibgp_line ?(rr = false) ?(block_export = false) () =
  let b = B.create () in
  List.iter
    (fun (name, rid) ->
      B.add_device b ~name ~vendor:"vendorA" ~asn:65000
        ~router_id:(B.ip rid) ())
    [ ("X", "1.1.1.1"); ("Y", "2.2.2.2"); ("Z", "3.3.3.3") ];
  let axy, bxy = B.link b ~a:"X" ~b:"Y" ~subnet:(pfx "10.1.0.0/31") () in
  let ayz, byz = B.link b ~a:"Y" ~b:"Z" ~subnet:(pfx "10.2.0.0/31") () in
  if block_export then begin
    B.add_prefix_list b "X"
      (B.prefix_list "P99" [ (Types.Permit, "99.0.0.0/24", None, None) ]);
    B.add_policy b "X"
      (B.policy "BLOCK"
         [
           B.node ~action:(Some Types.Deny)
             ~matches:[ Types.Match_prefix_list "P99" ]
             10;
           B.node 20;
         ])
  end;
  B.bgp_session b ~a:"X" ~b:"Y" ~a_addr:axy ~b_addr:bxy
    ?a_export:(if block_export then Some "BLOCK" else None)
    ();
  (* rr=true makes Z a client of Y, so Y may reflect X's routes on *)
  B.bgp_session b ~a:"Y" ~b:"Z" ~a_addr:ayz ~b_addr:byz ~a_rr_client:rr ();
  b

let input_99 = [ B.input_route ~device:"X" ~prefix:"99.0.0.0/24" () ]
let p99 = pfx "99.0.0.0/24"

let intent ~name ~devices ~expect =
  {
    Semantic.ri_name = name;
    ri_prefix = p99;
    ri_devices = devices;
    ri_expect = expect;
  }

let test_closure () =
  let cl b =
    let g = graph_of b in
    Semantic.closure g ~input_routes:input_99 p99
  in
  let members = cl (ibgp_line ()) in
  check tbool "origin X is in the closure" true (Hashtbl.mem members "X");
  check tbool "direct iBGP peer Y is in the closure" true
    (Hashtbl.mem members "Y");
  check tbool "non-client Z is NOT in the closure (no reflector)" false
    (Hashtbl.mem members "Z");
  (* making Z a route-reflector client of Y opens the Y->Z hop *)
  let members = cl (ibgp_line ~rr:true ()) in
  check tbool "client Z is in the closure under a reflector" true
    (Hashtbl.mem members "Z");
  (* a definite Deny on X's export prunes the very first hop *)
  let members = cl (ibgp_line ~block_export:true ()) in
  check tbool "origin survives its own export policy" true
    (Hashtbl.mem members "X");
  check tbool "denied export prunes Y from the closure" false
    (Hashtbl.mem members "Y")

let test_precheck_verdicts () =
  let g = graph_of (ibgp_line ()) in
  let verdict ri = Semantic.precheck g ~input_routes:input_99 ri in
  check tbool "expected-present at the origin is proved" true
    (verdict (intent ~name:"i1" ~devices:[ "X" ] ~expect:true)
    = Semantic.Proved);
  check tbool "expected-present at reachable non-origin needs simulation"
    true
    (verdict (intent ~name:"i2" ~devices:[ "Y" ] ~expect:true)
    = Semantic.Needs_simulation);
  check tbool "expected-present outside the closure is refuted" true
    (match verdict (intent ~name:"i3" ~devices:[ "Z" ] ~expect:true) with
    | Semantic.Refuted _ -> true
    | _ -> false);
  check tbool "expected-absent at the origin is refuted" true
    (match verdict (intent ~name:"i4" ~devices:[ "X" ] ~expect:false) with
    | Semantic.Refuted _ -> true
    | _ -> false);
  check tbool "expected-absent outside the closure is proved" true
    (verdict (intent ~name:"i5" ~devices:[ "Z" ] ~expect:false)
    = Semantic.Proved);
  check tbool "expected-absent inside the closure needs simulation" true
    (verdict (intent ~name:"i6" ~devices:[ "Y" ] ~expect:false)
    = Semantic.Needs_simulation);
  (* the batch API returns the same verdicts, in order *)
  let ris =
    [
      intent ~name:"i1" ~devices:[ "X" ] ~expect:true;
      intent ~name:"i3" ~devices:[ "Z" ] ~expect:true;
      intent ~name:"i2" ~devices:[ "Y" ] ~expect:true;
    ]
  in
  let batch = Semantic.precheck_batch g ~input_routes:input_99 ris in
  check tint "batch preserves length" 3 (List.length batch);
  List.iter
    (fun (ri, v) ->
      check tbool
        (Printf.sprintf "batch verdict for %s matches single"
           ri.Semantic.ri_name)
        true
        (v = verdict ri))
    batch

(* --- static verdicts agree with the full simulation ----------------- *)

let sim_present b ~device =
  let model = B.build b in
  let rib = (Route_sim.run model ~input_routes:input_99 ()).Route_sim.rib in
  List.exists
    (fun (r : Route.t) ->
      String.equal r.Route.device device && Prefix.equal r.Route.prefix p99)
    (Rib.to_list rib)

let test_sim_crosscheck () =
  (* every (network, device) the pre-checker gives a definite verdict on
     must agree with what the simulator actually computes *)
  List.iter
    (fun (label, b) ->
      let g = graph_of b in
      List.iter
        (fun dev ->
          let sim = sim_present b ~device:dev in
          (match
             Semantic.precheck g ~input_routes:input_99
               (intent ~name:("present-" ^ dev) ~devices:[ dev ]
                  ~expect:true)
           with
          | Semantic.Proved ->
              check tbool
                (Printf.sprintf "%s: proved-present on %s holds in sim"
                   label dev)
                true sim
          | Semantic.Refuted _ ->
              check tbool
                (Printf.sprintf "%s: refuted-present on %s holds in sim"
                   label dev)
                false sim
          | Semantic.Needs_simulation -> ());
          match
            Semantic.precheck g ~input_routes:input_99
              (intent ~name:("absent-" ^ dev) ~devices:[ dev ]
                 ~expect:false)
          with
          | Semantic.Proved ->
              check tbool
                (Printf.sprintf "%s: proved-absent on %s holds in sim"
                   label dev)
                false sim
          | Semantic.Refuted _ ->
              check tbool
                (Printf.sprintf "%s: refuted-absent on %s holds in sim"
                   label dev)
                true sim
          | Semantic.Needs_simulation -> ())
        [ "X"; "Y"; "Z" ])
    [
      ("plain", ibgp_line ());
      ("reflector", ibgp_line ~rr:true ());
      ("blocked", ibgp_line ~block_export:true ());
    ]

(* --- the pre-checker inside Verify_request -------------------------- *)

let test_verify_request_skip () =
  let g = Lazy.force small in
  let base =
    Hoyan_core.Preprocess.prepare g.G.model
      ~monitored_routes:g.G.input_routes ~monitored_flows:g.G.flows
  in
  let border =
    (* any device present in both configs and topology *)
    match Types.Smap.min_binding_opt g.G.model.Model.configs with
    | Some (d, _) -> d
    | None -> Alcotest.fail "corpus has no devices"
  in
  (* 203.0.113.0/24 is originated nowhere in the generated corpus, so
     both intents resolve statically: one refuted, one proved *)
  let originless = pfx "203.0.113.0/24" in
  let refuted =
    Intents.Route_reach
      { rr_prefix = originless; rr_devices = [ border ]; rr_expect = true }
  in
  let proved =
    Intents.Route_reach
      { rr_prefix = originless; rr_devices = [ border ]; rr_expect = false }
  in
  let rq =
    {
      VR.rq_name = "static";
      rq_plan = Cp.make "noop";
      rq_intents = [ refuted; proved ];
    }
  in
  let r = VR.run base rq in
  check tbool "all intents resolved: simulation skipped" true
    (r.VR.vr_route = VR.Resolved);
  check tint "skipped run computes no RIB" 0 (Rib.length r.VR.vr_updated_rib);
  check tint "both intents carry a verdict" 2 (List.length r.VR.vr_precheck);
  check tint "the refuted intent is the one violation" 1
    (List.length r.VR.vr_violations);
  check tbool "the violation names the refuted intent" true
    (String.equal (List.hd r.VR.vr_violations).Intents.v_intent
       (Intents.to_string refuted));
  check tbool "request fails" false r.VR.vr_ok;
  (* cross-check: simulating the base model (the plan is a no-op) and
     checking each intent against it reaches the same verdicts *)
  let module P = Hoyan_core.Preprocess in
  let rib =
    (Route_sim.run g.G.model ~input_routes:base.P.b_input_routes ())
      .Route_sim.rib
  in
  let traffic = base.P.b_traffic in
  let sim_violations =
    List.concat_map
      (fun intent ->
        Intents.verify intent ~model:g.G.model ~base_rib:rib ~updated_rib:rib
          ~base_traffic:traffic ~updated_traffic:traffic)
      rq.VR.rq_intents
  in
  check tint "simulation also finds exactly one violation" 1
    (List.length sim_violations);
  check tbool "simulation violates the same intent" true
    (String.equal (List.hd sim_violations).Intents.v_intent
       (Intents.to_string refuted));
  (* a mixed request must still simulate the unresolved intent *)
  let needs_sim =
    match g.G.input_routes with
    | (r : Route.t) :: _ ->
        Intents.Route_reach
          {
            rr_prefix = r.Route.prefix;
            rr_devices = [ border ];
            rr_expect = true;
          }
    | [] -> Alcotest.fail "corpus has no input routes"
  in
  let r =
    VR.run base { rq with VR.rq_intents = [ refuted; needs_sim ] }
  in
  check tbool "unresolved intent forces simulation" true
    (r.VR.vr_route = VR.Full_run);
  check tbool "mixed run still computed a RIB" true
    (r.VR.vr_updated_rib <> Rib.empty)

(* --- exit-code contract and baselines ------------------------------- *)

let err () = D.make ~code:"HOY020" ~device:"X" ~obj:"peer 10.0.0.1" "one way"
let warn () = D.make ~code:"HOY026" ~device:"Y" ~obj:"static" "dangling"

let test_exit_code () =
  check tint "clean is 0" 0 (D.exit_code []);
  check tint "a warning is 1" 1 (D.exit_code [ warn () ]);
  check tint "warnings under the budget are 0" 0
    (D.exit_code ~max_warnings:1 [ warn () ]);
  check tint "an error is 2" 2 (D.exit_code [ err () ]);
  check tint "errors trump the warning budget" 2
    (D.exit_code ~max_warnings:99 [ err (); warn () ])

let test_baseline_roundtrip () =
  let ds = [ err (); warn () ] in
  let recorded = D.parse_baseline (D.to_baseline ds) in
  check tint "baseline records each finding once" 2 (List.length recorded);
  check
    Alcotest.(list string)
    "recorded findings are fully suppressed" []
    (List.map D.to_string (D.apply_baseline ~baseline:recorded ds));
  (* a new finding on another device survives the baseline *)
  let fresh = D.make ~code:"HOY020" ~device:"Z" ~obj:"peer 10.0.0.9" "new" in
  check tint "new findings are not suppressed" 1
    (List.length (D.apply_baseline ~baseline:recorded (fresh :: ds)));
  check tint "suppressed-and-new exits on the new error" 2
    (D.exit_code (D.apply_baseline ~baseline:recorded (fresh :: ds)))

(* --- the three-valued walk is sound against Policy.eval ------------- *)

(* Random policies over a fixed filter set: prefix-list clauses (defined
   in either family, or undefined) and family clauses decide on the
   prefix; community and tag clauses never do.  Nodes may lack an action
   or continue to the next node; the attached name may be absent or
   undefined.  [tri_eval] must agree with [Policy.eval] whenever it gives
   a definite answer, and must give one when every clause is
   prefix-decidable. *)
let prop_tri_eval_sound =
  let open QCheck.Gen in
  let pe seq action p ge le =
    { Types.pe_seq = seq; pe_action = action; pe_prefix = pfx p; pe_ge = ge;
      pe_le = le }
  in
  let pl name fam entries =
    (name, { Types.pl_name = name; pl_family = fam; pl_entries = entries })
  in
  let prefix_lists =
    Types.Smap.of_seq
      (List.to_seq
         [
           pl "PL4A" Ip.Ipv4
             [ pe 5 Types.Deny "10.0.1.0/24" None None;
               pe 10 Types.Permit "10.0.0.0/16" None (Some 24) ];
           pl "PL4B" Ip.Ipv4
             [ pe 5 Types.Permit "192.168.0.0/16" (Some 24) None ];
           pl "PL6" Ip.Ipv6
             [ pe 5 Types.Permit "2001:db8::/32" None (Some 64) ];
         ])
  in
  let comm = Community.make 65000 1 in
  let community_lists =
    Types.Smap.singleton "CL"
      { Types.cl_name = "CL";
        cl_entries = [ { Types.ce_seq = 5; ce_action = Types.Permit;
                         ce_members = [ comm ] } ] }
  in
  let prefixes =
    List.map pfx
      [ "10.0.0.0/24"; "10.0.1.0/24"; "10.0.0.0/16"; "192.168.1.0/24";
        "172.16.0.0/12"; "2001:db8::/48"; "2001:db8::/32"; "2001:db9::/32" ]
  in
  let decidable =
    oneofl
      [ Types.Match_prefix_list "PL4A"; Types.Match_prefix_list "PL4B";
        Types.Match_prefix_list "PL6"; Types.Match_prefix_list "PLX";
        Types.Match_family Ip.Ipv4; Types.Match_family Ip.Ipv6 ]
  in
  let undecidable =
    oneofl
      [ Types.Match_community_list "CL"; Types.Match_community_list "CLX";
        Types.Match_tag 0; Types.Match_tag 7 ]
  in
  let gen_node ~only_decidable i =
    let clause =
      if only_decidable then decidable
      else frequency [ (3, decidable); (2, undecidable) ]
    in
    map4
      (fun action matches sets goto_next ->
        { Types.pn_seq = 10 * (i + 1); pn_action = action;
          pn_matches = matches; pn_sets = sets; pn_goto_next = goto_next })
      (oneofl [ Some Types.Permit; Some Types.Deny; None ])
      (list_size (int_bound 3) clause)
      (oneofl [ []; [ Types.Set_tag 7 ]; [ Types.Set_local_pref 300 ] ])
      (frequency [ (3, return false); (1, return true) ])
  in
  let gen_case =
    bool >>= fun only_decidable ->
    int_bound 4 >>= fun n ->
    flatten_l (List.init n (gen_node ~only_decidable)) >>= fun nodes ->
    oneofl [ "vendorA"; "vendorB" ] >>= fun vendor ->
    oneofl [ Some "RP"; Some "UNDEF"; None ] >>= fun name ->
    bool >>= fun ebgp ->
    oneofl prefixes >>= fun p ->
    bool >>= fun tagged ->
    bool >>= fun with_comm ->
    let cfg =
      { (Types.empty ~device:"d" ~vendor) with
        Types.dc_prefix_lists = prefix_lists;
        dc_community_lists = community_lists;
        dc_policies =
          Types.Smap.singleton "RP" { Types.rp_name = "RP"; rp_nodes = nodes } }
    in
    let r =
      Route.make ~device:"d" ~prefix:p ~tag:(if tagged then 7 else 0)
        ~communities:
          (Community.Set.of_list (if with_comm then [ comm ] else []))
        ()
    in
    return (only_decidable, cfg, name, ebgp, r)
  in
  let print (_, (cfg : Types.t), name, ebgp, (r : Route.t)) =
    Printf.sprintf "%s %s ebgp=%b %s nodes=%d" cfg.Types.dc_vendor
      (Option.value name ~default:"-") ebgp (Route.to_string r)
      (List.length (Types.Smap.find "RP" cfg.Types.dc_policies).Types.rp_nodes)
  in
  QCheck.Test.make ~name:"tri_eval is sound against Policy.eval" ~count:3000
    (QCheck.make ~print gen_case)
    (fun (only_decidable, cfg, name, ebgp, r) ->
      let v = Policy.eval ~ebgp cfg (Vsb.of_config cfg) name r in
      match Semantic.tri_eval cfg name ~ebgp r.Route.prefix with
      | Semantic.TYes -> v.Policy.pv_action = Types.Permit
      | Semantic.TNo -> v.Policy.pv_action = Types.Deny
      | Semantic.TUnknown -> not only_decidable)

let suite =
  [
    Alcotest.test_case "clean corpus: zero semantic findings" `Quick
      test_clean_corpus;
    Alcotest.test_case "control-plane graph statistics" `Quick
      test_graph_stats;
    Alcotest.test_case "propagation closure on an iBGP line" `Quick
      test_closure;
    Alcotest.test_case "pre-checker verdicts" `Quick test_precheck_verdicts;
    Alcotest.test_case "static verdicts agree with simulation" `Quick
      test_sim_crosscheck;
    Alcotest.test_case "pre-checker wired into Verify_request" `Quick
      test_verify_request_skip;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7741 |])
      prop_tri_eval_sound;
    Alcotest.test_case "lint exit-code contract" `Quick test_exit_code;
    Alcotest.test_case "baseline suppression round-trip" `Quick
      test_baseline_roundtrip;
  ]
