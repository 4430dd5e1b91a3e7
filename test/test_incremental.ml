(* The incremental delta-simulation engine (lib/sim/incremental.ml) and
   its wiring through the pipeline and the server.

   The contract under test is byte-identity: a change plan re-converged
   only inside its dirty region and spliced into the cached base RIB
   must produce exactly the rows (and exactly the traffic floats) a full
   from-scratch run of the patched model produces.  [selfcheck] is the
   oracle; the [prune_dirty] knob makes the engine unsound on purpose so
   we can prove the oracle actually catches under-approximation. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module B = Hoyan_workload.Builder
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Incremental = Hoyan_sim.Incremental
module Preprocess = Hoyan_core.Preprocess
module Intents = Hoyan_core.Intents
module Verify_request = Hoyan_core.Verify_request
module Kfailure = Hoyan_core.Kfailure
module Snapshot = Hoyan_server.Snapshot
module Server = Hoyan_server.Server
module Request = Hoyan_server.Request
module Smap = Types.Smap

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let pfx = Prefix.of_string_exn

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1010 |]) t

let scenario = lazy (G.generate G.small)

let ctx =
  lazy
    (let g = Lazy.force scenario in
     let rib =
       (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib
     in
     Incremental.capture ~model:g.G.model ~input_routes:g.G.input_routes
       ~flows:g.G.flows ~rib ())

(* A deterministic family of change plans over the scenario: the shapes
   the incremental engine claims to handle without fallback. *)
let announce_plan (g : G.t) i =
  let border = List.nth g.G.borders (i mod List.length g.G.borders) in
  let route =
    Route.make ~device:border
      ~prefix:(pfx (Printf.sprintf "203.0.%d.0/24" (i mod 200)))
      ~as_path:(As_path.of_asns [ 7018; 3356 ])
      ~source:Route.Ebgp ()
  in
  Cp.make "announce" ~new_routes:[ route ]

let withdraw_plan (g : G.t) i =
  let prefixes =
    List.sort_uniq Prefix.compare
      (List.map (fun (r : Route.t) -> r.Route.prefix) g.G.input_routes)
  in
  let p = List.nth prefixes (i mod List.length prefixes) in
  Cp.make "withdraw" ~withdraw:[ p ]

let network_plan (g : G.t) i =
  (* add a network statement on some vendorA device: a config-command
     plan whose dirty region is the new prefix *)
  let vendor_a =
    Smap.bindings g.G.model.Model.configs
    |> List.filter (fun (_, (c : Types.t)) -> c.Types.dc_vendor = "vendorA")
    |> List.map fst
  in
  let dev = List.nth vendor_a (i mod List.length vendor_a) in
  let asn = (Smap.find dev g.G.model.Model.configs).Types.dc_bgp.Types.bgp_asn in
  let block =
    Printf.sprintf "router bgp %d\n network 198.51.%d.0/24\n" asn (i mod 200)
  in
  Cp.make "network" ~commands:[ (dev, block) ]

let plan_family (g : G.t) kind i =
  match kind with
  | 0 -> Cp.make "noop"
  | 1 -> announce_plan g i
  | 2 -> withdraw_plan g i
  | 3 -> network_plan g i
  | _ ->
      (* combined announce + withdraw *)
      {
        (announce_plan g i) with
        Cp.cp_withdraw = (withdraw_plan g i).Cp.cp_withdraw;
      }

(* --- splice == full: the oracle holds on the handled plan shapes ---- *)

let test_selfcheck_basic () =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  List.iteri
    (fun i (name, plan) ->
      let ck = Incremental.selfcheck cx plan in
      check tbool (name ^ ": spliced RIB identical") true
        ck.Incremental.ck_rib_ok;
      check tbool (name ^ ": traffic identical") true
        ck.Incremental.ck_traffic_ok;
      check tbool (name ^ ": no fallback") false
        ck.Incremental.ck_stats.Incremental.st_full_fallback;
      ignore i)
    [
      ("noop", Cp.make "noop");
      ("announce", announce_plan g 3);
      ("withdraw-only", withdraw_plan g 5);
      ("network-stmt", network_plan g 2);
      ("announce+withdraw", plan_family g 4 7);
    ]

let test_topo_plan_falls_back_soundly () =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  (* remove a real link: topology ops make the dirty set unenumerable,
     so the engine must fall back to a full run — and still be exact *)
  let a, b =
    match Topology.edges g.G.model.Model.topo with
    | e :: _ -> (e.Topology.src, e.Topology.dst)
    | [] -> Alcotest.fail "scenario has no links"
  in
  let plan = Cp.make "linkdown" ~topo_ops:[ Cp.Remove_link { ra = a; rb = b } ] in
  let ck = Incremental.selfcheck cx plan in
  check tbool "topo plan falls back" true
    ck.Incremental.ck_stats.Incremental.st_full_fallback;
  check tbool "fallback result still identical" true ck.Incremental.ck_ok

let prop_splice_eq_full =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  QCheck.Test.make ~name:"random plan family: spliced == from-scratch"
    ~count:25
    (QCheck.make QCheck.Gen.(pair (int_bound 4) (int_bound 1000)))
    (fun (kind, i) ->
      let ck = Incremental.selfcheck cx (plan_family g kind i) in
      ck.Incremental.ck_ok)

(* --- dirty devices: no under- or over-marking ----------------------- *)

(* The devices whose FIB tries a splice must rebuild: every device owning
   a base or post-change BGP row on a re-converged prefix, plus every
   device whose local table changed.  The traffic oracle catches a
   missed device; this catches an extra one, which silently costs a
   trie rebuild per plan. *)
let reference_dirty_devices (cx : Incremental.ctx) (s : Incremental.sim) =
  let base = Incremental.base_model cx and patched = s.Incremental.s_model in
  let locals (m : Model.t) dev =
    Option.value (Smap.find_opt dev m.Model.local_tables) ~default:[]
  in
  let all_locals (m : Model.t) =
    Smap.fold (fun _ rs acc -> rs @ acc) m.Model.local_tables []
  in
  let dirty = Prefix.Set.of_list s.Incremental.s_dirty in
  let on_dirty rows =
    List.filter_map
      (fun (r : Route.t) ->
        if Prefix.Set.mem r.Route.prefix dirty then Some r.Route.device
        else None)
      rows
  in
  let changed_locals =
    Smap.fold (fun dev _ acc -> dev :: acc) base.Model.local_tables []
    @ Smap.fold (fun dev _ acc -> dev :: acc) patched.Model.local_tables []
    |> List.filter (fun dev ->
           not (List.equal Route.equal (locals base dev) (locals patched dev)))
  in
  List.sort_uniq String.compare
    (on_dirty (Rib.Global.diff (Incremental.base_rib cx) (all_locals base))
    @ on_dirty (Rib.Global.diff s.Incremental.s_rib (all_locals patched))
    @ changed_locals)

let prop_dirty_devices_exact =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  QCheck.Test.make ~name:"random plan family: dirty devices == reference"
    ~count:25
    (QCheck.make QCheck.Gen.(pair (int_bound 4) (int_bound 1000)))
    (fun (kind, i) ->
      let s = Incremental.simulate cx (plan_family g kind i) in
      s.Incremental.s_stats.Incremental.st_dirty_devices
      = List.length (reference_dirty_devices cx s))

(* --- the oracle catches deliberate unsoundness ---------------------- *)

let test_oracle_catches_pruned_dirty_set () =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  let plan = announce_plan g 1 in
  (* drop every dirty prefix: the delta misses the announcement, so the
     spliced RIB must differ from the full run — and selfcheck must say
     so, with the missing rows as the witness *)
  let ck =
    Incremental.selfcheck ~traffic:false ~prune_dirty:(fun _ -> true) cx plan
  in
  check tbool "under-approximation detected" false ck.Incremental.ck_rib_ok;
  check tbool "missing rows reported" true (ck.Incremental.ck_missing <> [])

(* --- verify_request wiring ------------------------------------------ *)

let base =
  lazy
    (let g = Lazy.force scenario in
     Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
       ~monitored_flows:g.G.flows)

let test_verify_request_inc_agrees () =
  let g = Lazy.force scenario in
  let b = Lazy.force base in
  let cx = Lazy.force ctx in
  let plan = announce_plan g 0 in
  let prefix = (List.hd plan.Cp.cp_new_routes).Route.prefix in
  let rq =
    {
      Verify_request.rq_name = "inc-agrees";
      rq_plan = plan;
      (* Route_change needs the fixpoint (the pre-checker cannot resolve
         it statically), so the incremental path actually runs *)
      rq_intents =
        [
          Intents.Route_change "PRE = POST";
          Intents.Route_reach
            {
              rr_prefix = prefix;
              rr_devices = [ (List.hd plan.Cp.cp_new_routes).Route.device ];
              rr_expect = true;
            };
        ];
    }
  in
  let full = Verify_request.run b rq in
  let inc = Verify_request.run ~inc:cx b rq in
  check tbool "same verdict" full.Verify_request.vr_ok
    inc.Verify_request.vr_ok;
  check tbool "same updated RIB" true
    (Rib.Global.equal full.Verify_request.vr_updated_rib
       inc.Verify_request.vr_updated_rib);
  match inc.Verify_request.vr_inc with
  | None -> Alcotest.fail "incremental stats missing"
  | Some st ->
      check tbool "no fallback on an announce plan" false
        st.Incremental.st_full_fallback

(* --- satellite 1: partial bases never carry verdicts over ----------- *)

let test_partial_base_refuses_carryover () =
  let g = Lazy.force scenario in
  let intents =
    [
      Intents.Route_reach
        {
          rr_prefix = (List.hd g.G.input_routes).Route.prefix;
          rr_devices = [ (List.hd g.G.input_routes).Route.device ];
          rr_expect = true;
        };
    ]
  in
  let rq =
    { Verify_request.rq_name = "carry"; rq_plan = Cp.make "noop"; rq_intents = intents }
  in
  (* healthy base: a no-op plan carries the verdict over *)
  let healthy = Lazy.force base in
  let r1 = Verify_request.run ~diff:true healthy rq in
  check tbool "healthy base carries over" true
    (r1.Verify_request.vr_carried <> []);
  (* partial base (converged state from a run with failed subtasks):
     carry-over must be refused, every intent re-verified *)
  let partial =
    Preprocess.prepare ~partial:true g.G.model
      ~monitored_routes:g.G.input_routes ~monitored_flows:g.G.flows
  in
  let r2 = Verify_request.run ~diff:true partial rq in
  check tint "partial base carries nothing" 0
    (List.length r2.Verify_request.vr_carried);
  check tbool "intents still verified (not silently dropped)" true
    r2.Verify_request.vr_ok

(* --- satellite 2: traffic cost is attributed at the forcing site ---- *)

let test_traffic_seconds_attribution () =
  let b = Lazy.force base in
  let rq =
    {
      Verify_request.rq_name = "no-traffic";
      rq_plan = Cp.make "noop";
      rq_intents = [ Intents.Route_change "PRE = POST" ];
    }
  in
  let r = Verify_request.run b rq in
  check (Alcotest.float 0.) "route-only request forces no traffic" 0.
    !(r.Verify_request.vr_traffic_seconds);
  ignore (Lazy.force r.Verify_request.vr_updated_traffic);
  check tbool "forcing later lands in vr_traffic_seconds" true
    (!(r.Verify_request.vr_traffic_seconds) > 0.);
  check tbool "total = sim + traffic" true
    (Verify_request.total_seconds r
    >= r.Verify_request.vr_sim_seconds +. !(r.Verify_request.vr_traffic_seconds)
       -. 1e-9);
  (* a traffic intent forces during the run: the cost must land in the
     traffic bucket, not inflate the sim time *)
  let rq2 =
    { rq with Verify_request.rq_intents = [ Intents.Max_utilization 1.0 ] }
  in
  let r2 = Verify_request.run b rq2 in
  check tbool "in-run forcing accounted" true
    (!(r2.Verify_request.vr_traffic_seconds) > 0.)

(* --- satellite 3: snapshot registration dedups on digest ------------ *)

let test_snapshot_register_dedup () =
  Snapshot.reset_registry ();
  let b = Lazy.force base in
  let s1 = Snapshot.register b in
  let s2 = Snapshot.register b in
  check tbool "same digest" true
    (String.equal s1.Snapshot.sn_digest s2.Snapshot.sn_digest);
  check tbool "second registration returns the existing snapshot" true
    (s1 == s2);
  (* content-identical but separately built base: still deduped *)
  let g = Lazy.force scenario in
  let b' =
    Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
      ~monitored_flows:g.G.flows
  in
  let s3 = Snapshot.register b' in
  check tbool "identical content dedups too" true (s1 == s3)

(* --- server: artifact sharing keeps responses byte-identical -------- *)

let test_server_artifact_sharing () =
  Snapshot.reset_registry ();
  let g = Lazy.force scenario in
  let b = Lazy.force base in
  let srv = Server.create () in
  let snap = Server.register_snapshot srv b in
  let plan = announce_plan g 0 in
  let intents = [ Intents.Route_change "PRE = POST" ] in
  let mk id tenant =
    Request.make ~tenant ~no_cache:true ~plan ~intents ~id Request.Simulate
  in
  (* same plan from two tenants, result cache bypassed: the second run
     reuses the spliced artifact; both must match the plain direct path *)
  (match Server.submit srv (mk "a-1" "tenant-a") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "submit a-1");
  (match Server.submit srv (mk "b-1" "tenant-b") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "submit b-1");
  let responses = Server.drain srv in
  check tint "both executed" 2 (List.length responses);
  let _, reference = Server.run_direct snap (mk "ref" "tenant-c") in
  List.iter
    (fun (r : Server.response) ->
      check Alcotest.string
        (r.Server.rs_id ^ ": body identical to direct execution")
        reference r.Server.rs_body)
    responses

(* --- kfailure: footprint-restricted scenario re-runs ---------------- *)

let test_kfailure_restricted_agrees () =
  let b = B.create () in
  B.add_device b ~name:"A" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"Bx" ~vendor:"vendorA" ~asn:65002
    ~router_id:(B.ip "2.2.2.2") ();
  B.add_device b ~name:"Cx" ~vendor:"vendorA" ~asn:65003
    ~router_id:(B.ip "3.3.3.3") ();
  let a1, b1 = B.link b ~a:"A" ~b:"Bx" ~subnet:(pfx "10.0.0.0/31") () in
  let b2, c2 = B.link b ~a:"Bx" ~b:"Cx" ~subnet:(pfx "10.0.1.0/31") () in
  B.bgp_session b ~a:"A" ~b:"Bx" ~a_addr:a1 ~b_addr:b1 ();
  B.bgp_session b ~a:"Bx" ~b:"Cx" ~a_addr:b2 ~b_addr:c2 ();
  let model = B.build b in
  let input =
    [
      B.input_route ~device:"A" ~prefix:"99.0.0.0/24" ~as_path:[ 7 ] ();
      B.input_route ~device:"A" ~prefix:"98.0.0.0/24" ~as_path:[ 8 ] ();
    ]
  in
  let rib = (Route_sim.run model ~input_routes:input ()).Route_sim.rib in
  let cx =
    Incremental.capture ~model ~input_routes:input ~flows:[] ~rib ()
  in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx "99.0.0.0/24") ~devices:[ "Cx" ]
  in
  let plain = Kfailure.check model ~input_routes:input ~flows:[] ~k:1 prop in
  let fast =
    Kfailure.check ~inc:cx model ~input_routes:input ~flows:[] ~k:1 prop
  in
  check tint "same violation count"
    (List.length plain.Kfailure.kr_violations)
    (List.length fast.Kfailure.kr_violations);
  check tbool "restricted fixpoints were used" true
    (fast.Kfailure.kr_restricted > 0
    || fast.Kfailure.kr_simulated = 0);
  check tint "plain path reports zero restricted" 0
    plain.Kfailure.kr_restricted

let suite =
  [
    Alcotest.test_case "selfcheck: handled plan shapes" `Quick
      test_selfcheck_basic;
    Alcotest.test_case "selfcheck: topo plans fall back soundly" `Quick
      test_topo_plan_falls_back_soundly;
    qtest prop_splice_eq_full;
    qtest prop_dirty_devices_exact;
    Alcotest.test_case "oracle catches a pruned dirty set" `Quick
      test_oracle_catches_pruned_dirty_set;
    Alcotest.test_case "verify_request: inc path agrees with full" `Quick
      test_verify_request_inc_agrees;
    Alcotest.test_case "partial base refuses verdict carry-over" `Quick
      test_partial_base_refuses_carryover;
    Alcotest.test_case "traffic cost attributed at the forcing site" `Quick
      test_traffic_seconds_attribution;
    Alcotest.test_case "snapshot registration dedups on digest" `Quick
      test_snapshot_register_dedup;
    Alcotest.test_case "server artifact sharing is byte-identical" `Quick
      test_server_artifact_sharing;
    Alcotest.test_case "kfailure: restricted scenarios agree" `Quick
      test_kfailure_restricted_agrees;
  ]
