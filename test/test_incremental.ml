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
let pick l i = List.nth l (i mod List.length l)

let vendor_a_devices (g : G.t) =
  Smap.bindings g.G.model.Model.configs
  |> List.filter (fun (_, (c : Types.t)) -> c.Types.dc_vendor = "vendorA")
  |> List.map fst

let input_prefixes (g : G.t) =
  List.sort_uniq Prefix.compare
    (List.map (fun (r : Route.t) -> r.Route.prefix) g.G.input_routes)

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
  Cp.make "withdraw" ~withdraw:[ pick (input_prefixes g) i ]

let network_plan (g : G.t) i =
  (* add a network statement on some vendorA device: a config-command
     plan whose dirty region is the new prefix *)
  let dev = pick (vendor_a_devices g) i in
  let asn = (Smap.find dev g.G.model.Model.configs).Types.dc_bgp.Types.bgp_asn in
  let block =
    Printf.sprintf "router bgp %d\n network 198.51.%d.0/24\n" asn (i mod 200)
  in
  Cp.make "network" ~commands:[ (dev, block) ]

(* An aggregate over the 150.0.0.0/16 input prefixes on a border: every
   component joins the dirty set, so the restricted fixpoint can
   originate (and, summary-only, suppress under) the aggregate. *)
let aggregate_plan ~summary_only =
  Cp.make "aggregate"
    ~commands:
      [
        ( "r00-bdr01",
          Printf.sprintf "router bgp 64512\n aggregate-address 150.0.0.0/16%s\n"
            (if summary_only then " summary-only" else "") );
      ]

let static_route ?(preference = 1) (g : G.t) i =
  let p = pick (input_prefixes g) (i / 7) in
  ( pick (vendor_a_devices g) i,
    p,
    Printf.sprintf "ip route %s Null0 preference %d\n" (Prefix.to_string p)
      preference )

let static_plan (g : G.t) i =
  (* a vendor-A static on an input prefix: a local-table change that
     outranks the device's BGP rows for that slot, so its FIB binding
     (and the traffic toward the prefix) moves *)
  let dev, _, block = static_route g i in
  Cp.make "static" ~commands:[ (dev, block) ]

let more_specific_plan (g : G.t) i =
  (* announce the lower half of an input prefix: flows into that half
     change their LPM under the still-bound covering prefix *)
  let p = pick (input_prefixes g) i in
  let route =
    Route.make ~device:(pick g.G.borders i)
      ~prefix:(Prefix.make (Prefix.ip p) (Prefix.len p + 1))
      ~as_path:(As_path.of_asns [ 7018; 3356 ])
      ~source:Route.Ebgp ()
  in
  Cp.make "more-specific" ~new_routes:[ route ]

(* Input prefixes carried by exactly one input route and originated
   nowhere in the model: withdrawing one must unbind it everywhere. *)
let sole_prefixes (g : G.t) =
  let model = g.G.model in
  let local =
    Smap.fold
      (fun _ rows acc ->
        List.map (fun (r : Route.t) -> r.Route.prefix) rows @ acc)
      model.Model.local_tables []
    @ Smap.fold
        (fun _ (c : Types.t) acc ->
          List.map fst c.Types.dc_bgp.Types.bgp_networks
          @ List.map
              (fun (a : Types.aggregate) -> a.Types.ag_prefix)
              c.Types.dc_bgp.Types.bgp_aggregates
          @ acc)
        model.Model.configs []
  in
  List.filter
    (fun p ->
      List.length
        (List.filter
           (fun (r : Route.t) -> Prefix.equal r.Route.prefix p)
           g.G.input_routes)
      = 1
      && not (List.exists (Prefix.equal p) local))
    (input_prefixes g)

let withdraw_sole_plan (g : G.t) i =
  Cp.make "withdraw-sole" ~withdraw:[ pick (sole_prefixes g) i ]

let plan_family (g : G.t) kind i =
  match kind with
  | 0 -> Cp.make "noop"
  | 1 -> announce_plan g i
  | 2 -> withdraw_plan g i
  | 3 -> network_plan g i
  | 4 ->
      (* combined announce + withdraw *)
      {
        (announce_plan g i) with
        Cp.cp_withdraw = (withdraw_plan g i).Cp.cp_withdraw;
      }
  | 5 -> static_plan g i
  | 6 -> more_specific_plan g i
  | _ -> withdraw_sole_plan g i

let n_kinds = 7

(* --- splice == full: the oracle holds on the handled plan shapes ---- *)

let test_selfcheck_basic () =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  List.iter
    (fun (name, plan, dirty) ->
      let ck = Incremental.selfcheck cx plan in
      check tbool (name ^ ": spliced RIB identical") true
        ck.Incremental.ck_rib_ok;
      check tbool (name ^ ": patched FIBs identical") true
        ck.Incremental.ck_fib_ok;
      check tbool (name ^ ": traffic identical") true
        ck.Incremental.ck_traffic_ok;
      check tbool (name ^ ": no fallback") false
        ck.Incremental.ck_stats.Incremental.st_full_fallback;
      Option.iter
        (fun n ->
          check tint (name ^ ": dirty prefixes") n
            ck.Incremental.ck_stats.Incremental.st_dirty_prefixes)
        dirty)
    [
      ("noop", Cp.make "noop", None);
      ("announce", announce_plan g 3, None);
      ("withdraw-only", withdraw_plan g 5, None);
      ("network-stmt", network_plan g 2, None);
      ("announce+withdraw", plan_family g 4 7, None);
      ("static", static_plan g 3, None);
      ("more-specific", more_specific_plan g 2, None);
      ("withdraw-sole", withdraw_sole_plan g 1, None);
      (* the aggregate and its 75 components *)
      ("aggregate", aggregate_plan ~summary_only:false, Some 76);
      ("aggregate summary-only", aggregate_plan ~summary_only:true, Some 76);
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
    (QCheck.make QCheck.Gen.(pair (int_bound n_kinds) (int_bound 1000)))
    (fun (kind, i) ->
      let ck = Incremental.selfcheck cx (plan_family g kind i) in
      ck.Incremental.ck_ok)

(* --- FIB patch: the slots the plan family must reach ---------------- *)

let binds (fibs : Hoyan_sim.Traffic_sim.fib) p =
  Hashtbl.fold
    (fun _ trie b -> b || Option.is_some (Trie.Dual.find_exact trie p))
    fibs false

let in_union ecx p =
  List.exists (Prefix.equal p) (Hoyan_sim.Traffic_sim.union_prefixes ecx)

let test_withdraw_sole_unbinds () =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  let plan = withdraw_sole_plan g 0 in
  let p = List.hd plan.Cp.cp_withdraw in
  check tbool "bound before" true (binds (Incremental.base_fibs cx) p);
  check tbool "in the base union" true
    (in_union (Incremental.base_ec_ctx cx) p);
  let s = Incremental.simulate cx plan in
  check tbool "unbound on every device" false
    (binds (Lazy.force s.Incremental.s_fibs) p);
  check tbool "left the union" false
    (in_union (Lazy.force s.Incremental.s_ecx) p);
  check tbool "base FIBs untouched" true (binds (Incremental.base_fibs cx) p)

let test_more_specific_enters_union () =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  let plan = more_specific_plan g 2 in
  let sub = (List.hd plan.Cp.cp_new_routes).Route.prefix in
  let s = Incremental.simulate cx plan in
  check tbool "more-specific bound" true
    (binds (Lazy.force s.Incremental.s_fibs) sub);
  check tbool "more-specific in the union" true
    (in_union (Lazy.force s.Incremental.s_ecx) sub);
  check tbool "oracle holds" true
    (Incremental.selfcheck cx plan).Incremental.ck_ok

(* A local-table change off the dirty set.  A static the device does not
   redistribute leaves every BGP row alone, so dropping its prefix from
   the dirty set keeps the splice exact — and leaves the local-table
   symmetric difference as the only route by which the slot reaches the
   FIB patch, over base BGP rows found in the clean arena. *)
let test_local_only_slots () =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  List.iter
    (fun (name, preference, wins) ->
      let dev, p, block = static_route ~preference g 3 in
      let plan = Cp.make name ~commands:[ (dev, block) ] in
      let prune_dirty = Prefix.equal p in
      let s = Incremental.simulate ~prune_dirty cx plan in
      check tint (name ^ ": no delta rows") 0
        s.Incremental.s_stats.Incremental.st_delta_rows;
      check tbool (name ^ ": prefix off the dirty set") false
        (List.exists (Prefix.equal p) s.Incremental.s_dirty);
      let installed fibs =
        match Hashtbl.find_opt fibs dev with
        | None -> []
        | Some trie ->
            Option.value (Trie.Dual.find_exact trie p) ~default:[]
      in
      let base = installed (Incremental.base_fibs cx) in
      check tbool (name ^ ": base binds BGP rows") true
        (base <> []
        && List.for_all (fun (r : Route.t) -> r.Route.proto = Route.Bgp) base);
      let after = installed (Lazy.force s.Incremental.s_fibs) in
      check tbool (name ^ ": slot patched as expected") true
        (if wins then
           after <> []
           && List.for_all
                (fun (r : Route.t) -> r.Route.proto = Route.Static)
                after
         else List.equal Route.equal base after);
      let ck = Incremental.selfcheck ~prune_dirty cx plan in
      check tbool (name ^ ": rib identical") true ck.Incremental.ck_rib_ok;
      check tbool (name ^ ": fib identical") true ck.Incremental.ck_fib_ok;
      check tbool (name ^ ": traffic identical") true
        ck.Incremental.ck_traffic_ok)
    [ ("static-wins", 1, true); ("static-loses", 1000, false) ]

(* A device whose only installed route is withdrawn: its trie empties and
   leaves the table, as a from-scratch build never creates it. *)
let test_patch_empties_device () =
  let b = B.create () in
  B.add_device b ~name:"A" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"Bx" ~vendor:"vendorA" ~asn:65002
    ~router_id:(B.ip "2.2.2.2") ();
  B.add_device b ~name:"Lone" ~vendor:"vendorA" ~asn:65003
    ~router_id:(B.ip "3.3.3.3") ();
  let a1, b1 = B.link b ~a:"A" ~b:"Bx" ~subnet:(pfx "10.0.0.0/31") () in
  B.bgp_session b ~a:"A" ~b:"Bx" ~a_addr:a1 ~b_addr:b1 ();
  let model = B.build b in
  let input =
    [
      B.input_route ~device:"A" ~prefix:"99.0.0.0/24" ~as_path:[ 7 ] ();
      B.input_route ~device:"Lone" ~prefix:"98.0.0.0/24" ~as_path:[ 8 ] ();
    ]
  in
  let rib = (Route_sim.run model ~input_routes:input ()).Route_sim.rib in
  let cx = Incremental.capture ~model ~input_routes:input ~flows:[] ~rib () in
  check tbool "Lone has a base FIB" true
    (Hashtbl.mem (Incremental.base_fibs cx) "Lone");
  let plan = Cp.make "withdraw" ~withdraw:[ pfx "98.0.0.0/24" ] in
  let s = Incremental.simulate cx plan in
  check tbool "Lone's emptied FIB is dropped" false
    (Hashtbl.mem (Lazy.force s.Incremental.s_fibs) "Lone");
  check tbool "prefix left the union" false
    (in_union (Lazy.force s.Incremental.s_ecx) (pfx "98.0.0.0/24"));
  check tbool "oracle holds" true
    (Incremental.selfcheck cx plan).Incremental.ck_ok

(* --- dirty devices: no under- or over-marking ----------------------- *)

(* The devices a splice reports dirty ([st_dirty_devices]): every device
   owning a base or post-change BGP row on a re-converged prefix, plus
   every device whose local table changed.  The count is the splice's
   reach in telemetry, so neither a missed nor an extra device may slip
   through. *)
let reference_dirty_devices (cx : Incremental.ctx) (s : Incremental.sim) =
  let base = Incremental.base_model cx and patched = s.Incremental.s_model in
  let locals (m : Model.t) dev =
    Option.value (Smap.find_opt dev m.Model.local_tables) ~default:[]
  in
  let all_locals (m : Model.t) =
    Rib.of_routes (Smap.fold (fun _ rs acc -> rs @ acc) m.Model.local_tables [])
  in
  let dirty = Prefix.Set.of_list s.Incremental.s_dirty in
  let on_dirty (rows : Rib.t) =
    List.filter_map
      (fun (r : Route.t) ->
        if Prefix.Set.mem r.Route.prefix dirty then Some r.Route.device
        else None)
      (Rib.to_list rows)
  in
  let changed_locals =
    Smap.fold (fun dev _ acc -> dev :: acc) base.Model.local_tables []
    @ Smap.fold (fun dev _ acc -> dev :: acc) patched.Model.local_tables []
    |> List.filter (fun dev ->
           not (List.equal Route.equal (locals base dev) (locals patched dev)))
  in
  List.sort_uniq String.compare
    (on_dirty (Rib.diff (Incremental.base_rib cx) (all_locals base))
    @ on_dirty (Rib.diff s.Incremental.s_rib (all_locals patched))
    @ changed_locals)

let prop_dirty_devices_exact =
  let g = Lazy.force scenario in
  let cx = Lazy.force ctx in
  QCheck.Test.make ~name:"random plan family: dirty devices == reference"
    ~count:25
    (QCheck.make QCheck.Gen.(pair (int_bound n_kinds) (int_bound 1000)))
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
  let inc =
    Verify_request.run
      ~stage:(Verify_request.Simulate (Verify_request.Splice cx))
      b rq
  in
  check tbool "same verdict" full.Verify_request.vr_ok
    inc.Verify_request.vr_ok;
  check tbool "same updated RIB" true
    (Rib.equal full.Verify_request.vr_updated_rib
       inc.Verify_request.vr_updated_rib);
  match inc.Verify_request.vr_route with
  | Verify_request.Spliced st ->
      check tbool "no fallback on an announce plan" false
        st.Incremental.st_full_fallback
  | _ -> Alcotest.fail "incremental stats missing"

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

(* --- kfailure: footprint-restricted scenario re-runs ---------------- *)

(* With and without a captured context the sweep agrees and restricts
   every representative; test kfailure's restriction oracle compares the
   restricted verdicts against unrestricted fixpoints. *)

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
  check tint "every simulated representative restricted"
    fast.Kfailure.kr_simulated fast.Kfailure.kr_restricted;
  check tint "the context-free path restricts too"
    plain.Kfailure.kr_simulated plain.Kfailure.kr_restricted

let suite =
  [
    Alcotest.test_case "selfcheck: handled plan shapes" `Quick
      test_selfcheck_basic;
    Alcotest.test_case "selfcheck: topo plans fall back soundly" `Quick
      test_topo_plan_falls_back_soundly;
    qtest prop_splice_eq_full;
    qtest prop_dirty_devices_exact;
    Alcotest.test_case "fib patch: withdrawn sole route unbinds" `Quick
      test_withdraw_sole_unbinds;
    Alcotest.test_case "fib patch: more-specific enters the union" `Quick
      test_more_specific_enters_union;
    Alcotest.test_case "fib patch: local-only slots" `Quick
      test_local_only_slots;
    Alcotest.test_case "fib patch: an emptied device is dropped" `Quick
      test_patch_empties_device;
    Alcotest.test_case "oracle catches a pruned dirty set" `Quick
      test_oracle_catches_pruned_dirty_set;
    Alcotest.test_case "verify_request: inc path agrees with full" `Quick
      test_verify_request_inc_agrees;
    Alcotest.test_case "traffic cost attributed at the forcing site" `Quick
      test_traffic_seconds_attribution;
    Alcotest.test_case "kfailure: restricted scenarios agree" `Quick
      test_kfailure_restricted_agrees;
  ]
