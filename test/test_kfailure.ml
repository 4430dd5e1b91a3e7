(* k-failure verification (lib/core/kfailure.ml) and the static
   failure-equivalence analysis behind it (lib/analysis/failure_eq.ml).

   The soundness contract under test: the pruned sweep (equivalence
   classes + carried base verdicts + cut-analysis verdicts) must report
   exactly the violating scenarios the brute-force sweep reports — on
   hand-built topologies, on randomly generated ones (k ∈ {1,2}, link
   and device failures), and across the chaos-style matrix of
   (seed × k × failure-mode) cells. *)

open Hoyan_net
module B = Hoyan_workload.Builder
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Kfailure = Hoyan_core.Kfailure
module Feq = Hoyan_analysis.Failure_eq
module Semantic = Hoyan_analysis.Semantic
module Lint = Hoyan_analysis.Lint
module Telemetry = Hoyan_telemetry.Telemetry
module Trace = Hoyan_telemetry.Trace

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let pfx = Prefix.of_string_exn

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 99097 |]) t

(* ------------------------------------------------------------------ *)
(* Topology builders                                                   *)
(* ------------------------------------------------------------------ *)

(* eBGP chain R0 - R1 - ... - R(n-1); prefix injected at R0. *)
let chain n =
  let b = B.create () in
  for i = 0 to n - 1 do
    B.add_device b
      ~name:(Printf.sprintf "R%d" i)
      ~vendor:"vendorA" ~asn:(65000 + i)
      ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
      ()
  done;
  for i = 0 to n - 2 do
    let a = Printf.sprintf "R%d" i and bb = Printf.sprintf "R%d" (i + 1) in
    let subnet = pfx (Printf.sprintf "10.0.%d.0/31" i) in
    let a_addr, b_addr = B.link b ~a ~b:bb ~subnet () in
    B.bgp_session b ~a ~b:bb ~a_addr ~b_addr ()
  done;
  b

let the_prefix = "99.0.0.0/24"

let input_at dev =
  [ B.input_route ~device:dev ~prefix:the_prefix ~as_path:[ 7 ] () ]

(* Random connected eBGP topology: a spanning tree over [n] devices plus
   [extra] random chords, every link carrying a session. *)
let random_topo rng ~n ~extra =
  let b = B.create () in
  for i = 0 to n - 1 do
    B.add_device b
      ~name:(Printf.sprintf "R%d" i)
      ~vendor:"vendorA" ~asn:(65000 + i)
      ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
      ()
  done;
  let linked = Hashtbl.create 16 in
  let subnet_count = ref 0 in
  let connect i j =
    let i, j = (min i j, max i j) in
    if i <> j && not (Hashtbl.mem linked (i, j)) then begin
      Hashtbl.replace linked (i, j) ();
      let a = Printf.sprintf "R%d" i and bb = Printf.sprintf "R%d" j in
      let subnet = pfx (Printf.sprintf "10.%d.%d.0/31" (!subnet_count / 250) (!subnet_count mod 250)) in
      incr subnet_count;
      let a_addr, b_addr = B.link b ~a ~b:bb ~subnet () in
      B.bgp_session b ~a ~b:bb ~a_addr ~b_addr ()
    end
  in
  for i = 1 to n - 1 do
    connect i (Random.State.int rng i)
  done;
  for _ = 1 to extra do
    connect (Random.State.int rng n) (Random.State.int rng n)
  done;
  b

(* ------------------------------------------------------------------ *)
(* The brute-vs-pruned oracle                                          *)
(* ------------------------------------------------------------------ *)

let violating_scenarios (r : Kfailure.result) =
  List.map (fun (s : Kfailure.scenario_result) -> s.Kfailure.sr_failures)
    r.Kfailure.kr_violations
  |> List.sort compare

let reason_map (r : Kfailure.result) =
  List.filter_map
    (fun (s : Kfailure.scenario_result) ->
      Option.map (fun v -> (s.Kfailure.sr_failures, v)) s.Kfailure.sr_violation)
    r.Kfailure.kr_violations

let is_static reason =
  String.length reason >= 8 && String.sub reason 0 8 = "statical"

(* Pruned and brute-force sweeps must agree on the violating scenario
   set; non-static pruned reasons must also agree verbatim (members of
   a fingerprint class provably share their missing-device sets). *)
let assert_sound ?(msg = "") ~devices ~k model ~input_routes prop =
  let brute =
    Kfailure.check ~prune:false ~devices model ~input_routes ~flows:[] ~k prop
  in
  let pruned =
    Kfailure.check ~prune:true ~devices model ~input_routes ~flows:[] ~k prop
  in
  check tint (msg ^ "same scenario universe") brute.Kfailure.kr_total
    pruned.Kfailure.kr_total;
  check tint (msg ^ "exhaustive: all scenarios checked")
    pruned.Kfailure.kr_total pruned.Kfailure.kr_checked;
  check tbool (msg ^ "no silent sampling") false pruned.Kfailure.kr_sampled;
  check
    Alcotest.(list (list string))
    (msg ^ "identical violation sets")
    (List.map (List.map Kfailure.failure_to_string) (violating_scenarios brute))
    (List.map (List.map Kfailure.failure_to_string) (violating_scenarios pruned));
  let brute_reasons = reason_map brute in
  List.iter
    (fun (fs, reason) ->
      if not (is_static reason) then
        match List.assoc_opt fs brute_reasons with
        | Some br ->
            check Alcotest.string
              (msg ^ "replicated reason matches simulation") br reason
        | None -> Alcotest.fail (msg ^ "pruned violation unknown to brute"))
    (reason_map pruned);
  (brute, pruned)

(* ------------------------------------------------------------------ *)
(* Property units                                                      *)
(* ------------------------------------------------------------------ *)

let test_prefix_survives () =
  let b = chain 3 in
  let model = B.build b in
  let rib =
    (Route_sim.run model ~input_routes:(input_at "R0") ()).Route_sim.rib
  in
  let prop = Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R2" ] in
  check tbool "propagated prefix present" true
    (prop.Kfailure.p_check ~model ~rib ~traffic:(lazy (assert false)) = None);
  let prop2 =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix)
      ~devices:[ "R2"; "Rmissing" ]
  in
  (match prop2.Kfailure.p_check ~model ~rib ~traffic:(lazy (assert false)) with
  | Some reason ->
      check tbool "missing device named" true
        (String.length reason > 0
        && Str.string_match (Str.regexp ".*Rmissing") reason 0)
  | None -> Alcotest.fail "absent device not reported");
  (* footprint declaration matches the check *)
  match prop.Kfailure.p_footprint with
  | Feq.Reach_all (p, devs) ->
      check tbool "footprint prefix" true (Prefix.equal p (pfx the_prefix));
      check Alcotest.(list string) "footprint devices" [ "R2" ] devs
  | _ -> Alcotest.fail "prefix_survives must declare Reach_all"

(* whatif translates a Route_reach intent into prefix_survives, so the
   two must judge presence by one rule: only selected (Best/Ecmp) rows
   count.  R2's only row for the prefix is a Backup. *)
let test_prefix_survives_selected_only () =
  let model = B.build (chain 3) in
  let row dev route_type =
    Route.make ~device:dev ~prefix:(pfx the_prefix) ~route_type ()
  in
  let rib = Rib.of_routes [ row "R1" Route.Best; row "R2" Route.Backup ] in
  List.iter
    (fun (dev, present) ->
      let survives =
        (Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ dev ])
          .Kfailure.p_check ~model ~rib ~traffic:(lazy (assert false))
        = None
      in
      let holds =
        Hoyan_core.Intents.verify
          (Hoyan_core.Intents.Route_reach
             { rr_prefix = pfx the_prefix; rr_devices = [ dev ]; rr_expect = true })
          ~model ~base_rib:rib ~updated_rib:rib
          ~base_traffic:(lazy (assert false))
          ~updated_traffic:(lazy (assert false))
        = []
      in
      check tbool (dev ^ ": intent verdict") present holds;
      check tbool (dev ^ ": prefix_survives agrees") holds survives)
    [ ("R1", true); ("R2", false) ]

let test_no_overload_worst_link () =
  (* R0 -> R1 -> R2 with a fat first hop and a thin second hop: both
     links overload, and the thin one is the true maximum. *)
  let b = B.create () in
  List.iteri
    (fun i name ->
      B.add_device b ~name ~vendor:"vendorA" ~asn:(65000 + i)
        ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
        ())
    [ "R0"; "R1"; "R2" ];
  let a01, b01 =
    B.link b ~a:"R0" ~b:"R1" ~subnet:(pfx "10.0.0.0/31") ~bandwidth:1e9 ()
  in
  let a12, b12 =
    B.link b ~a:"R1" ~b:"R2" ~subnet:(pfx "10.0.1.0/31") ~bandwidth:1e8 ()
  in
  B.bgp_session b ~a:"R0" ~b:"R1" ~a_addr:a01 ~b_addr:b01 ();
  B.bgp_session b ~a:"R1" ~b:"R2" ~a_addr:a12 ~b_addr:b12 ();
  let model = B.build b in
  let input = input_at "R2" in
  let rib = (Route_sim.run model ~input_routes:input ()).Route_sim.rib in
  let flow =
    Flow.make ~src:(B.ip "1.0.0.1") ~dst:(B.ip "99.0.0.7") ~ingress:"R0"
      ~volume:9e7 ()
  in
  let traffic = lazy (Hoyan_sim.Traffic_sim.run model ~rib ~flows:[ flow ] ()) in
  let prop = Kfailure.no_overload ~max_util:0.01 in
  (match prop.Kfailure.p_check ~model ~rib ~traffic with
  | None -> Alcotest.fail "overload not detected"
  | Some reason ->
      (* 9e7 bps over the 1e8 link = 90%, over the 1e9 link = 9%: the
         thin R1->R2 hop is the worst and its utilization is printed *)
      check tbool "true max-utilization link reported" true
        (Str.string_match (Str.regexp ".*worst R1->R2 at 90\\.0%") reason 0));
  check tbool "no_overload declares itself opaque" true
    (prop.Kfailure.p_footprint = Feq.Opaque)

let test_combinations () =
  let rec naive k l =
    if k = 0 then [ [] ]
    else
      match l with
      | [] -> []
      | x :: rest ->
          List.map (fun c -> x :: c) (naive (k - 1) rest) @ naive k rest
  in
  List.iter
    (fun (k, l) ->
      check
        Alcotest.(list (list int))
        (Printf.sprintf "choose %d" k) (naive k l)
        (Kfailure.combinations k l))
    [ (0, [ 1; 2 ]); (1, [ 1; 2; 3 ]); (2, [ 1; 2; 3; 4 ]); (3, [ 1; 2; 3; 4; 5 ]);
      (2, []); (5, [ 1; 2; 3 ]) ];
  check tint "C(10,3)" 120 (List.length (Kfailure.combinations 3 (List.init 10 Fun.id)))

(* ------------------------------------------------------------------ *)
(* Brute vs pruned on hand topologies                                  *)
(* ------------------------------------------------------------------ *)

let test_chain_sound () =
  let model = B.build (chain 4) in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R3" ]
  in
  List.iter
    (fun k ->
      List.iter
        (fun devices ->
          ignore
            (assert_sound
               ~msg:(Printf.sprintf "chain k=%d devices=%b: " k devices)
               ~devices ~k model ~input_routes:(input_at "R0") prop))
        [ false; true ])
    [ 1; 2 ]

let test_ring_sound () =
  (* ring of 4: single failures are survivable, pairs can partition *)
  let b = B.create () in
  for i = 0 to 3 do
    B.add_device b
      ~name:(Printf.sprintf "R%d" i)
      ~vendor:"vendorA" ~asn:(65000 + i)
      ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
      ()
  done;
  List.iteri
    (fun idx (i, j) ->
      let a = Printf.sprintf "R%d" i and bb = Printf.sprintf "R%d" j in
      let a_addr, b_addr =
        B.link b ~a ~b:bb ~subnet:(pfx (Printf.sprintf "10.0.%d.0/31" idx)) ()
      in
      B.bgp_session b ~a ~b:bb ~a_addr ~b_addr ())
    [ (0, 1); (1, 2); (2, 3); (0, 3) ];
  let model = B.build b in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix)
      ~devices:[ "R1"; "R2"; "R3" ]
  in
  let brute, pruned =
    assert_sound ~msg:"ring k=2: " ~devices:false ~k:2 model
      ~input_routes:(input_at "R0") prop
  in
  check tbool "ring survives every single failure" true
    (List.for_all
       (fun fs -> List.length fs = 2)
       (violating_scenarios brute));
  check tbool "ring k=2 finds partitioning pairs" true
    (pruned.Kfailure.kr_violations <> [])

(* Tier-1 effectiveness: failures in an unrelated island carry the base
   verdict, so the pruned sweep simulates strictly fewer scenarios. *)
let test_island_carries () =
  let b = chain 3 in
  (* a disconnected island with its own prefix, far from the property *)
  B.add_device b ~name:"I0" ~vendor:"vendorA" ~asn:64900
    ~router_id:(B.ip "10.254.0.1") ();
  B.add_device b ~name:"I1" ~vendor:"vendorA" ~asn:64901
    ~router_id:(B.ip "10.254.1.1") ();
  let a_addr, b_addr = B.link b ~a:"I0" ~b:"I1" ~subnet:(pfx "10.9.0.0/31") () in
  B.bgp_session b ~a:"I0" ~b:"I1" ~a_addr ~b_addr ();
  let model = B.build b in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R2" ]
  in
  let _, pruned =
    assert_sound ~msg:"island: " ~devices:true ~k:1 model
      ~input_routes:(input_at "R0") prop
  in
  check tbool "island failures carried without simulation" true
    (pruned.Kfailure.kr_carried > 0);
  check tbool "pruning simulates fewer scenarios" true
    (pruned.Kfailure.kr_simulated < pruned.Kfailure.kr_total)

(* Cut analysis: chain failures that disconnect the monitored device are
   proven statically, and every statically decided scenario is a real
   violation under simulation. *)
let test_cut_vs_simulation () =
  let model = B.build (chain 4) in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R3" ]
  in
  let brute, pruned =
    assert_sound ~msg:"cut: " ~devices:false ~k:1 model
      ~input_routes:(input_at "R0") prop
  in
  check tbool "chain SPOFs decided statically" true
    (pruned.Kfailure.kr_static > 0);
  let brute_viol = violating_scenarios brute in
  List.iter
    (fun (s : Kfailure.scenario_result) ->
      match s.Kfailure.sr_violation with
      | Some reason when is_static reason ->
          check tbool "static verdict confirmed by simulation" true
            (List.mem s.Kfailure.sr_failures brute_viol)
      | _ -> ())
    pruned.Kfailure.kr_violations;
  (* every chain link is a SPOF towards R3: all 3 link failures violate *)
  check tint "all chain links are SPOFs" 3 (List.length brute_viol)

let test_sampling_reported () =
  let model = B.build (chain 4) in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R3" ]
  in
  let res =
    Kfailure.check ~prune:false ~max_scenarios:1 model
      ~input_routes:(input_at "R0") ~flows:[] ~k:2 prop
  in
  check tbool "sampling is reported" true res.Kfailure.kr_sampled;
  check tbool "unchecked scenarios visible" true
    (res.Kfailure.kr_checked < res.Kfailure.kr_total);
  let full =
    Kfailure.check model ~input_routes:(input_at "R0") ~flows:[] ~k:2 prop
  in
  check tbool "default is exhaustive" false full.Kfailure.kr_sampled;
  check tint "default checks everything" full.Kfailure.kr_total
    full.Kfailure.kr_checked

(* ------------------------------------------------------------------ *)
(* Failure_eq plans vs brute-force scenario results                    *)
(* ------------------------------------------------------------------ *)

(* Ring R0-R1-R2-R3-R0 with a tail R3-R4 and a separate island I0-I1;
   the prefix enters at R0 and is monitored on R4.  Single ring failures
   reroute, R3-R4 (and R0/R3/R4 down) statically disconnect R4, and the
   island is outside the property's slice. *)
let ring_tail_island () =
  let b = B.create () in
  List.iteri
    (fun i name ->
      B.add_device b ~name ~vendor:"vendorA" ~asn:(65000 + i)
        ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
        ())
    [ "R0"; "R1"; "R2"; "R3"; "R4"; "I0"; "I1" ];
  List.iteri
    (fun idx (a, bb) ->
      let a_addr, b_addr =
        B.link b ~a ~b:bb ~subnet:(pfx (Printf.sprintf "10.0.%d.0/31" idx)) ()
      in
      B.bgp_session b ~a ~b:bb ~a_addr ~b_addr ())
    [ ("R0", "R1"); ("R1", "R2"); ("R2", "R3"); ("R0", "R3"); ("R3", "R4");
      ("I0", "I1") ];
  b

let decision_kind = function
  | Feq.Carry_base -> "carry"
  | Feq.Static_violation _ -> "static"
  | Feq.Simulate -> "simulate"

(* [analyze]'s plan must be a well-formed partition of the scenario
   enumeration (representative = first member, classes in first-seen
   order) whose decisions the brute-force results bear out: carried
   members keep the base verdict, static members all violate, members
   of a simulated class share one verdict, and the decision counts are
   the pruned sweep's [kr_carried]/[kr_static]/[kr_simulated]. *)
let plan_vs_brute ~msg ~devices ~k model ~input_routes prop =
  let g =
    Semantic.build
      (Lint.make ~topo:model.Model.topo ~render:false model.Model.configs)
  in
  let an = Feq.create ~te_aware:model.Model.te_aware g ~input_routes in
  let plan = Feq.analyze ~devices ~links:true an ~k prop.Kfailure.p_footprint in
  let brute, pruned =
    assert_sound ~msg ~devices ~k model ~input_routes prop
  in
  let scen = Array.of_list plan.Feq.pl_scenarios in
  let classes = Array.of_list plan.Feq.pl_classes in
  check tint (msg ^ "plan covers the brute universe") brute.Kfailure.kr_total
    (Array.length scen);
  let pos = Hashtbl.create 64 in
  Array.iteri (fun i fs -> Hashtbl.replace pos fs i) scen;
  let first_seen = ref (-1) in
  Array.iteri
    (fun id (c : Feq.cls) ->
      let idx = List.map (Hashtbl.find pos) c.Feq.cl_members in
      check tbool (msg ^ "members in enumeration order") true
        (List.sort compare idx = idx);
      check tbool (msg ^ "representative is the first member") true
        (c.Feq.cl_rep = List.hd c.Feq.cl_members);
      check tbool (msg ^ "classes in first-seen order") true
        (List.hd idx > !first_seen);
      first_seen := List.hd idx;
      List.iter
        (fun i -> check tint (msg ^ "class_of agrees") id plan.Feq.pl_class_of.(i))
        idx)
    classes;
  check tint (msg ^ "every scenario in one class") (Array.length scen)
    (Array.fold_left (fun n c -> n + List.length c.Feq.cl_members) 0 classes);
  let verdict = Hashtbl.create 64 in
  List.iter
    (fun (s : Kfailure.scenario_result) ->
      Hashtbl.replace verdict s.Kfailure.sr_failures s.Kfailure.sr_violation)
    brute.Kfailure.kr_violations;
  let brute_of fs = Option.join (Hashtbl.find_opt verdict fs) in
  let base_holds =
    prop.Kfailure.p_check ~model
      ~rib:(Route_sim.run model ~input_routes ()).Route_sim.rib
      ~traffic:(lazy (assert false))
    = None
  in
  let members kind =
    Array.fold_left
      (fun n c ->
        if decision_kind c.Feq.cl_decision = kind then
          n + List.length c.Feq.cl_members
        else n)
      0 classes
  in
  Array.iter
    (fun (c : Feq.cls) ->
      let rep = brute_of c.Feq.cl_rep in
      List.iter
        (fun fs ->
          let v = brute_of fs in
          match c.Feq.cl_decision with
          | Feq.Carry_base ->
              check tbool (msg ^ "carried member keeps the base verdict")
                base_holds (v = None)
          | Feq.Static_violation _ ->
              check tbool (msg ^ "static member violates under simulation")
                true (v <> None)
          | Feq.Simulate ->
              check
                Alcotest.(option string)
                (msg ^ "simulated class shares one verdict") rep v)
        c.Feq.cl_members)
    classes;
  check tint (msg ^ "carried = kr_carried") pruned.Kfailure.kr_carried
    (members "carry");
  check tint (msg ^ "static = kr_static") pruned.Kfailure.kr_static
    (members "static");
  check tint (msg ^ "simulated classes = kr_simulated")
    pruned.Kfailure.kr_simulated plan.Feq.pl_to_simulate;
  plan

(* Each scenario's decision on the fixed topology, by failure name. *)
let test_plan_decisions () =
  let model = B.build (ring_tail_island ()) in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R4" ]
  in
  let expect =
    [
      ("link I0-I1 down", "carry");
      ("link R0-R1 down", "simulate");
      ("link R1-R2 down", "simulate");
      ("link R2-R3 down", "simulate");
      ("link R0-R3 down", "simulate");
      ("link R3-R4 down", "static");
      ("device I0 down", "carry");
      ("device I1 down", "carry");
      ("device R0 down", "static");
      ("device R1 down", "simulate");
      ("device R2 down", "simulate");
      ("device R3 down", "static");
      ("device R4 down", "static");
    ]
  in
  List.iter
    (fun devices ->
      let msg = Printf.sprintf "ring+tail devices=%b: " devices in
      let plan =
        plan_vs_brute ~msg ~devices ~k:1 model ~input_routes:(input_at "R0")
          prop
      in
      let classes = Array.of_list plan.Feq.pl_classes in
      let got =
        List.mapi
          (fun i fs ->
            ( String.concat "+" (List.map Feq.failure_to_string fs),
              decision_kind classes.(plan.Feq.pl_class_of.(i)).Feq.cl_decision ))
          plan.Feq.pl_scenarios
        |> List.sort compare
      in
      let want =
        List.filter
          (fun (name, _) -> devices || String.sub name 0 4 = "link")
          expect
        |> List.sort compare
      in
      check
        Alcotest.(list (pair string string))
        (msg ^ "per-scenario decisions") want got)
    [ false; true ]

(* The static verdicts of k=2 classes come from their representative's
   own view: pairs that cut the ring both ways are static, the rest
   reroute or carry. *)
let test_plan_pairs () =
  let model = B.build (ring_tail_island ()) in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R4" ]
  in
  let plan =
    plan_vs_brute ~msg:"ring+tail k=2: " ~devices:false ~k:2 model
      ~input_routes:(input_at "R0") prop
  in
  check tbool "k=2 has static and simulated classes" true
    (List.exists
       (fun c -> decision_kind c.Feq.cl_decision = "static")
       plan.Feq.pl_classes
    && List.exists
         (fun c -> decision_kind c.Feq.cl_decision = "simulate")
         plan.Feq.pl_classes)

(* [check] traces its static analysis and its representative loop as one
   span each, the loop tagged with what it ran, and both with the IGP
   work their failure views did. *)
let test_whatif_spans () =
  let model = B.build (ring_tail_island ()) in
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:[ "R4" ]
  in
  let tm = Telemetry.create () in
  let r =
    Kfailure.check ~tm ~devices:true model ~input_routes:(input_at "R0")
      ~flows:[] ~k:1 prop
  in
  let named n =
    List.filter
      (fun (e : Trace.event) -> e.Trace.te_name = n)
      (Trace.events tm.Telemetry.trace)
  in
  check tint "one whatif.analyze span" 1 (List.length (named "whatif.analyze"));
  let igp_args (e : Trace.event) =
    List.map
      (fun a ->
        Option.bind (List.assoc_opt a e.Trace.te_args) int_of_string_opt
        <> None)
      [ "igp_rows_reused"; "igp_rows_recomputed"; "igp_vertices_resettled" ]
  in
  List.iter
    (fun n ->
      check
        Alcotest.(list (list bool))
        (n ^ " carries the IGP counts")
        [ [ true; true; true ] ]
        (List.map igp_args (named n)))
    [ "whatif.analyze"; "whatif.simulate" ];
  (match named "whatif.simulate" with
  | [ e ] ->
      check
        Alcotest.(option string)
        "tagged with the representative count"
        (Some (string_of_int r.Kfailure.kr_simulated))
        (List.assoc_opt "representatives" e.Trace.te_args);
      check
        Alcotest.(option string)
        "tagged with kr_restricted"
        (Some (string_of_int r.Kfailure.kr_restricted))
        (List.assoc_opt "restricted" e.Trace.te_args)
  | evs ->
      Alcotest.failf "expected one whatif.simulate span, got %d"
        (List.length evs));
  ignore
    (Kfailure.check ~tm ~prune:false model ~input_routes:(input_at "R0")
       ~flows:[] ~k:1 prop);
  check tint "one whatif.simulate span per check" 2
    (List.length (named "whatif.simulate"));
  check tint "brute force runs no analysis" 1
    (List.length (named "whatif.analyze"))

(* ------------------------------------------------------------------ *)
(* The restriction oracle                                              *)
(* ------------------------------------------------------------------ *)

(* The test-local reference: every scenario failed, simulated with an
   unrestricted fixpoint and checked — the verdicts [Kfailure.check]'s
   footprint-restricted fixpoints must reproduce.  Returns the sorted
   (scenario, reason) violations and the scenario count. *)
let reference ~devices ~k model ~input_routes prop =
  let cands = Feq.candidates ~devices ~links:true model.Model.topo in
  let scenarios =
    List.concat_map
      (fun i -> Feq.combinations i cands)
      (List.init k (fun i -> i + 1))
  in
  let violation fs =
    let m = Kfailure.apply_failures model fs in
    let rib = (Route_sim.run m ~input_routes ()).Route_sim.rib in
    let traffic = lazy (Hoyan_sim.Traffic_sim.run m ~rib ~flows:[] ()) in
    Option.map
      (fun v -> (List.map Kfailure.failure_to_string fs, v))
      (prop.Kfailure.p_check ~model:m ~rib ~traffic)
  in
  ( List.sort compare (List.filter_map violation scenarios),
    List.length scenarios )

(* [Kfailure.check], pruned and brute force, with and without a captured
   context, against [reference]: the same violating scenarios, the
   simulated reasons verbatim, and every simulated representative
   restricted.  The property must both hold and fail somewhere in the
   reference, so the comparison can tell. *)
let assert_restricted_exact ~msg ~devices ~k model ~input_routes prop =
  let expected, n = reference ~devices ~k model ~input_routes prop in
  check tbool (msg ^ "the reference both holds and fails") true
    (expected <> [] && List.length expected < n);
  let rib = (Route_sim.run model ~input_routes ()).Route_sim.rib in
  let cx =
    Hoyan_sim.Incremental.capture ~model ~input_routes ~flows:[] ~rib ()
  in
  List.iter
    (fun (prune, inc) ->
      let msg =
        Printf.sprintf "%sprune=%b inc=%b: " msg prune (Option.is_some inc)
      in
      let r =
        Kfailure.check ~prune ~devices ?inc model ~input_routes ~flows:[] ~k
          prop
      in
      let got =
        List.map
          (fun (s : Kfailure.scenario_result) ->
            ( List.map Kfailure.failure_to_string s.Kfailure.sr_failures,
              Option.value s.Kfailure.sr_violation ~default:"" ))
          r.Kfailure.kr_violations
        |> List.sort compare
      in
      check
        Alcotest.(list (list string))
        (msg ^ "violating scenarios match the unrestricted reference")
        (List.map fst expected) (List.map fst got);
      List.iter
        (fun (fs, reason) ->
          if not (is_static reason) then
            check Alcotest.string
              (msg ^ "simulated reason matches the reference")
              (List.assoc fs expected) reason)
        got;
      check tbool (msg ^ "some representative simulates") true
        (r.Kfailure.kr_simulated > 0);
      check tint (msg ^ "every simulated representative restricted")
        r.Kfailure.kr_simulated r.Kfailure.kr_restricted)
    [ (true, None); (true, Some cx); (false, None); (false, Some cx) ]

let test_restriction_plain () =
  let model = B.build (ring_tail_island ()) in
  assert_restricted_exact ~msg:"ring: " ~devices:true ~k:2 model
    ~input_routes:(input_at "R0")
    (Kfailure.prefix_survives ~prefix:(pfx the_prefix)
       ~devices:[ "R1"; "R2"; "R4" ])

(* The footprint is an aggregate: its row exists only while a component
   reaches the aggregating device, so a restriction that misses the
   components loses it everywhere. *)
let test_restriction_aggregate () =
  let b = ring_tail_island () in
  B.add_aggregate b "R2" (pfx "99.0.0.0/16");
  assert_restricted_exact ~msg:"aggregate: " ~devices:true ~k:1
    (B.build b) ~input_routes:(input_at "R0")
    (Kfailure.prefix_survives ~prefix:(pfx "99.0.0.0/16")
       ~devices:[ "R1"; "R4" ])

(* The footprint is a component of a summary-only aggregate on R3: R3
   suppresses it, so R1 and R2 hold it only over the R0-R1-R2 arm.  The
   closure pulls the aggregate into the restricted run alongside it. *)
let test_restriction_summary_component () =
  let b = ring_tail_island () in
  B.add_aggregate b "R3" ~summary_only:true (pfx "99.0.0.0/16");
  assert_restricted_exact ~msg:"summary-only: " ~devices:true ~k:1
    (B.build b) ~input_routes:(input_at "R0")
    (Kfailure.prefix_survives ~prefix:(pfx the_prefix)
       ~devices:[ "R1"; "R2" ])

(* Two generated prefixes, IPv4 and IPv6, each surviving on every border
   under most single link failures. *)
let test_restriction_small () =
  let module G = Hoyan_workload.Generator in
  let g = G.generate G.small in
  List.iter
    (fun p ->
      assert_restricted_exact ~msg:("small " ^ p ^ ": ") ~devices:false ~k:1
        g.G.model ~input_routes:g.G.input_routes
        (Kfailure.prefix_survives ~prefix:(pfx p) ~devices:g.G.borders))
    [ "150.0.79.0/24"; "2001:ddd:0:1::/64" ]

(* ------------------------------------------------------------------ *)
(* Randomized equivalence (qcheck) and the chaos matrix                *)
(* ------------------------------------------------------------------ *)

let prop_random_topologies_sound =
  QCheck.Test.make ~name:"brute == pruned on random topologies (k in {1,2})"
    ~count:12
    (QCheck.make
       QCheck.Gen.(triple (int_bound 10_000) (int_range 3 6) (int_range 1 2)))
    (fun (seed, n, k) ->
      let rng = Random.State.make [| seed; n; k |] in
      let b = random_topo rng ~n ~extra:(Random.State.int rng 3) in
      let model = B.build b in
      let monitored =
        List.filteri (fun i _ -> i mod 2 = 0) (List.init n (Printf.sprintf "R%d"))
      in
      let prop =
        Kfailure.prefix_survives ~prefix:(pfx the_prefix) ~devices:monitored
      in
      let devices = seed mod 2 = 0 in
      let brute, pruned =
        assert_sound
          ~msg:(Printf.sprintf "random seed=%d n=%d k=%d: " seed n k)
          ~devices ~k model ~input_routes:(input_at "R0") prop
      in
      violating_scenarios brute = violating_scenarios pruned)

(* The PR5 chaos-matrix idea as a correctness oracle: a deterministic
   grid of (seed x k x failure-mode) cells, every cell asserting the
   pruned sweep is indistinguishable from brute force. *)
let test_chaos_matrix () =
  let cells = ref 0 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| 7100 + seed |] in
      let b = random_topo rng ~n:(4 + (seed mod 2)) ~extra:seed in
      let model = B.build b in
      let prop =
        Kfailure.prefix_survives ~prefix:(pfx the_prefix)
          ~devices:[ "R1"; Printf.sprintf "R%d" (3 + (seed mod 2)) ]
      in
      List.iter
        (fun k ->
          List.iter
            (fun devices ->
              incr cells;
              ignore
                (assert_sound
                   ~msg:
                     (Printf.sprintf "matrix seed=%d k=%d devices=%b: " seed k
                        devices)
                   ~devices ~k model ~input_routes:(input_at "R0") prop))
            [ false; true ])
        [ 1; 2 ])
    [ 0; 1; 2 ];
  check tint "matrix covers all cells" 12 !cells

(* ------------------------------------------------------------------ *)
(* IS-IS-redistributed loopbacks under an aggregate                    *)
(* ------------------------------------------------------------------ *)

(* The chain R0 - R1 - ... - R(n-1), IS-IS on every link, one eBGP
   session (R0-R1).  R1 redistributes IS-IS, so it originates the host
   route of every loopback it reaches, and R0 aggregates R3's /24 over
   it: the aggregate's one component is a host route no config
   statement names. *)
let isis_aggregate_chain n =
  let b = B.create () in
  for i = 0 to n - 1 do
    B.add_device b
      ~name:(Printf.sprintf "R%d" i)
      ~vendor:"vendorA" ~asn:(65000 + i)
      ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
      ()
  done;
  for i = 0 to n - 2 do
    let a = Printf.sprintf "R%d" i and bb = Printf.sprintf "R%d" (i + 1) in
    let subnet = pfx (Printf.sprintf "10.0.%d.0/31" i) in
    let a_addr, b_addr = B.link b ~a ~b:bb ~subnet () in
    if i = 0 then B.bgp_session b ~a ~b:bb ~a_addr ~b_addr ()
  done;
  B.add_redistribute b "R1" Route.Isis;
  B.add_aggregate b "R0" (pfx "10.255.3.0/24");
  b

(* Every single failure of the four-router chain cuts R3's loopback off
   R1 or the aggregate off R0, so all 7 scenarios violate; a sweep that
   fingerprints the aggregate without its IS-IS component carries the
   base verdict to 6 of them.  A tail R4 gives the reference scenarios
   that hold (R3-R4 and R4 down), which the restriction oracle needs. *)
let test_isis_aggregate_chain () =
  let prop =
    Kfailure.prefix_survives ~prefix:(pfx "10.255.3.0/24") ~devices:[ "R0" ]
  in
  let brute, _ =
    assert_sound ~msg:"four routers: " ~devices:true ~k:1
      (B.build (isis_aggregate_chain 4))
      ~input_routes:[] prop
  in
  check tint "four routers: every scenario violates" 7
    (List.length brute.Kfailure.kr_violations);
  assert_restricted_exact ~msg:"five routers: " ~devices:true ~k:1
    (B.build (isis_aggregate_chain 5))
    ~input_routes:[] prop

(* Seeded random topologies, each with one IS-IS-redistributing device
   and one aggregate over a loopback /24 (summary-only on odd seeds),
   swept for the aggregate and for the loopback host route under it,
   k in {1,2}, with and without device failures.  Every cell compares the pruned sweep's violations
   with brute force's; the disagreeing cells are reported together. *)
let test_isis_aggregate_matrix () =
  let cells = ref 0 and disagree = ref [] in
  for seed = 0 to 23 do
    let rng = Random.State.make [| 7300 + seed |] in
    let n = 4 + (seed mod 3) in
    let b = random_topo rng ~n ~extra:(seed mod 3) in
    let dev () = Printf.sprintf "R%d" (Random.State.int rng n) in
    let owner = Random.State.int rng n in
    let aggregator = dev () in
    B.add_redistribute b (dev ()) Route.Isis;
    B.add_aggregate b aggregator ~summary_only:(seed mod 2 = 1)
      (pfx (Printf.sprintf "10.255.%d.0/24" owner));
    let model = B.build b in
    let monitored = List.sort_uniq compare [ aggregator; dev () ] in
    List.iter
      (fun footprint ->
        let prop =
          Kfailure.prefix_survives ~prefix:(pfx footprint) ~devices:monitored
        in
        List.iter
          (fun k ->
            List.iter
              (fun devices ->
                incr cells;
                let sweep prune =
                  violating_scenarios
                    (Kfailure.check ~prune ~devices model ~input_routes:[]
                       ~flows:[] ~k prop)
                in
                if sweep false <> sweep true then
                  disagree :=
                    Printf.sprintf "seed=%d %s k=%d devices=%b" seed footprint
                      k devices
                    :: !disagree)
              [ false; true ])
          [ 1; 2 ])
      [
        Printf.sprintf "10.255.%d.0/24" owner;
        Printf.sprintf "10.255.%d.1/32" owner;
      ]
  done;
  check tint "matrix covers all cells" 192 !cells;
  check
    Alcotest.(list string)
    "pruned == brute force in every cell" [] (List.rev !disagree)

(* ------------------------------------------------------------------ *)
(* Pinned plans on generated networks                                  *)
(* ------------------------------------------------------------------ *)

(* [analyze]'s tier counts and a digest of its class partition (every
   class in order: decision, reason and member scenario indices), on the
   generated networks the CLI sweeps.  An analysis rewrite must keep the
   partition, the decisions and the representatives byte for byte. *)
let plan_pin (g : Hoyan_workload.Generator.t) ~devices ~k p =
  let module G = Hoyan_workload.Generator in
  let model = g.G.model in
  let input = Lint.make ~topo:model.Model.topo model.Model.configs in
  let an =
    Feq.create ~te_aware:model.Model.te_aware (Semantic.build input)
      ~input_routes:g.G.input_routes
  in
  let plan =
    Feq.analyze ~devices ~links:true an ~k (Feq.Reach_all (pfx p, g.G.borders))
  in
  let index = Hashtbl.create 256 in
  List.iteri (fun i s -> Hashtbl.replace index s i) plan.Feq.pl_scenarios;
  let buf = Buffer.create 4096 in
  List.iter
    (fun (c : Feq.cls) ->
      Buffer.add_string buf
        (match c.Feq.cl_decision with
        | Feq.Carry_base -> "carry"
        | Feq.Static_violation r -> "static " ^ r
        | Feq.Simulate -> "simulate");
      List.iter
        (fun s -> Printf.bprintf buf " %d" (Hashtbl.find index s))
        c.Feq.cl_members;
      Buffer.add_char buf '\n')
    plan.Feq.pl_classes;
  let classes = Array.of_list plan.Feq.pl_classes in
  List.iteri
    (fun i s ->
      if not (List.mem s classes.(plan.Feq.pl_class_of.(i)).Feq.cl_members)
      then Alcotest.failf "%s: scenario %d outside its class" p i)
    plan.Feq.pl_scenarios;
  Printf.sprintf "%d/%d/%d/%d/%d %s" plan.Feq.pl_total plan.Feq.pl_carried
    plan.Feq.pl_static plan.Feq.pl_replicated plan.Feq.pl_to_simulate
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_plan_pins () =
  let module G = Hoyan_workload.Generator in
  let wan = G.generate { G.wan with G.g_seed = 1 } in
  let small = G.generate G.small in
  List.iter
    (fun (what, g, devices, k, p, want) ->
      check Alcotest.string what want (plan_pin g ~devices ~k p))
    [
      ("wan k=1 links, v4", wan, false, 1, "150.4.175.0/24",
       "140/7/1/0/132 ae88d3722336ce48102932b65a44b664");
      ("wan k=1 links+devices, v4", wan, true, 1, "150.4.175.0/24",
       "236/7/26/0/203 3a99e242411cb28184d8e602a74f230b");
      ("wan k=1 links, v6", wan, false, 1, "2001:ddd:0:45e::/64",
       "140/7/0/0/133 f4b721debbde094977cee0c1a72bbb6d");
      ("wan k=1 links+devices, v6", wan, true, 1, "2001:ddd:0:45e::/64",
       "236/7/24/0/205 275d8fe31ea8fe9cffbe192a07134ba9");
      ("small k=2 links+devices", small, true, 2, "150.0.79.0/24",
       "1326/3/687/89/547 395a20c5cb2f9c494a2c50d92675f70c");
    ]

(* ------------------------------------------------------------------ *)
(* A scenario model equals a rebuilt model                             *)
(* ------------------------------------------------------------------ *)

(* The IGP of a model, read by device name. *)
let igp_read f (m : Model.t) a b =
  let module Isis = Hoyan_proto.Isis in
  let igp = m.Model.igp in
  let ix d = Option.get (Isis.index igp d) in
  f igp ~src:(ix a) ~dst:(ix b)

let igp_cost = igp_read Hoyan_proto.Isis.cost

let igp_hops m a b =
  List.map (Hoyan_proto.Isis.name m.Model.igp)
    (igp_read Hoyan_proto.Isis.first_hops m a b)

(* [Kfailure.apply_failures model fs] against [Model.build] on
   [Change_plan.apply]'s failed network: the same local tables, sessions
   and SR tunnels (paths included), the same [d_igp_cost] at every owned
   and static next-hop address, and the same IGP cost and first hops
   between every pair of live devices. *)
let assert_scenario_model ~msg (model : Model.t) fs =
  let module Cp = Hoyan_config.Change_plan in
  let module Types = Hoyan_config.Types in
  let msg =
    Printf.sprintf "%s [%s]: " msg
      (String.concat ", " (List.map Kfailure.failure_to_string fs))
  in
  let got = Kfailure.apply_failures model fs in
  let ap =
    Cp.apply ~topo:model.Model.topo model.Model.configs
      (Cp.make "rebuild" ~topo_ops:(List.map Feq.topo_op fs))
  in
  let want =
    Model.build ~te_aware:model.Model.te_aware ~regex:model.Model.regex
      (Option.get ap.Cp.ap_topo) ap.Cp.ap_configs
  in
  let fail what = Alcotest.failf "%s%s differ" msg what in
  let names m = Topology.device_names m.Model.topo in
  if names got <> names want then fail "devices";
  if
    not
      (Model.Smap.equal (List.equal Route.equal) got.Model.local_tables
         want.Model.local_tables)
  then fail "local tables";
  if not (Model.Smap.equal ( = ) got.Model.tunnels want.Model.tunnels) then
    fail "SR tunnels";
  let addrs =
    Hashtbl.fold (fun a _ acc -> a :: acc) want.Model.owner_tbl []
    @ Model.Smap.fold
        (fun _ (cfg : Types.t) acc ->
          List.filter_map (fun (s : Types.static_route) -> s.Types.st_nexthop)
            cfg.Types.dc_statics
          @ acc)
        want.Model.configs []
  in
  Model.Smap.iter
    (fun dev (w : Hoyan_proto.Bgp.device_ctx) ->
      match Model.Smap.find_opt dev got.Model.net with
      | None -> fail ("context of " ^ dev)
      | Some g ->
          let module Bgp = Hoyan_proto.Bgp in
          if g.Bgp.d_sessions <> w.Bgp.d_sessions then
            fail ("sessions of " ^ dev);
          List.iter
            (fun a ->
              if g.Bgp.d_igp_cost a <> w.Bgp.d_igp_cost a then
                fail
                  (Printf.sprintf "d_igp_cost %s at %s" dev (Ip.to_string a)))
            addrs)
    want.Model.net;
  if Model.Smap.cardinal got.Model.net <> Model.Smap.cardinal want.Model.net
  then fail "device contexts";
  let live = Topology.device_names want.Model.topo in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if igp_cost got a b <> igp_cost want a b then
            fail (Printf.sprintf "IGP cost %s->%s" a b);
          if igp_hops got a b <> igp_hops want a b then
            fail (Printf.sprintf "IGP first hops %s->%s" a b))
        live)
    live

let test_scenario_model_wan () =
  let module G = Hoyan_workload.Generator in
  let model = (G.generate { G.wan with G.g_seed = 1 }).G.model in
  let links = Feq.candidates ~devices:false ~links:true model.Model.topo in
  let devices =
    Topology.device_names model.Model.topo
    |> List.filteri (fun i _ -> i mod 10 = 0)
    |> List.map (fun d -> Kfailure.Device_down d)
  in
  check tint "140 links" 140 (List.length links);
  check tint "10 devices" 10 (List.length devices);
  List.iter
    (fun f -> assert_scenario_model ~msg:"wan" model [ f ])
    (links @ devices)

(* A random connected topology with link costs from {0,1,2,3,10} (zero
   costs make ECMP ties and zero-cost cycles), parallel links, eBGP
   sessions on links, iBGP loopback sessions (IGP-reachability live),
   statics toward remote loopbacks, IS-IS redistribution and SR policies
   over the IGP path and through a waypoint. *)
let random_igp_topo rng =
  let n = 3 + Random.State.int rng 5 in
  let name i = Printf.sprintf "R%d" i in
  let b = B.create () in
  for i = 0 to n - 1 do
    B.add_device b ~name:(name i) ~vendor:"vendorA"
      ~asn:(if i mod 2 = 0 then 65000 else 65000 + i)
      ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
      ()
  done;
  let rid i = B.ip (Printf.sprintf "10.255.%d.1" i) in
  let count = ref 0 in
  let connect i j =
    if i <> j then begin
      let subnet = pfx (Printf.sprintf "10.0.%d.0/31" !count) in
      incr count;
      let cost = [| 0; 1; 2; 3; 10 |].(Random.State.int rng 5) in
      let a_addr, b_addr = B.link b ~a:(name i) ~b:(name j) ~subnet ~cost () in
      if Random.State.bool rng then
        B.bgp_session b ~a:(name i) ~b:(name j) ~a_addr ~b_addr ()
    end
  in
  for i = 1 to n - 1 do
    connect i (Random.State.int rng i)
  done;
  for _ = 1 to 1 + Random.State.int rng n do
    connect (Random.State.int rng n) (Random.State.int rng n)
  done;
  for _ = 1 to 2 do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    if i <> j && i mod 2 = 0 && j mod 2 = 0 then
      B.ibgp_loopback_session b ~a:(name i) ~b:(name j) ()
  done;
  for i = 0 to n - 1 do
    let j = Random.State.int rng n in
    if Random.State.int rng 3 = 0 then
      B.add_static b (name i)
        { Hoyan_config.Types.st_prefix =
            pfx (Printf.sprintf "172.16.%d.0/24" i);
          st_nexthop = Some (rid j); st_iface = None; st_preference = 1;
          st_tag = 0; st_vrf = Route.default_vrf };
    if Random.State.int rng 3 = 0 then B.add_redistribute b (name i) Route.Isis;
    if Random.State.int rng 2 = 0 then
      B.add_sr_policy b (name i)
        { Hoyan_config.Types.sp_name = "P" ^ name i; sp_endpoint = rid j;
          sp_color = 1;
          sp_segments =
            (if Random.State.bool rng then [ name (Random.State.int rng n) ]
             else []);
          sp_preference = 100 }
  done;
  b

let prop_scenario_model_random =
  QCheck.Test.make ~name:"scenario model == rebuilt model (random, zero costs)"
    ~count:40 (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = B.build (random_igp_topo rng) in
      let cands = Feq.candidates ~devices:true ~links:true model.Model.topo in
      List.iter
        (assert_scenario_model ~msg:(Printf.sprintf "seed %d" seed) model)
        (Feq.combinations 1 cands
        @ List.filteri (fun i _ -> i mod 7 = 0) (Feq.combinations 2 cands));
      true)

let suite =
  [
    Alcotest.test_case "property: prefix_survives" `Quick test_prefix_survives;
    Alcotest.test_case "property: prefix_survives counts selected rows only"
      `Quick test_prefix_survives_selected_only;
    Alcotest.test_case "property: no_overload reports true max" `Quick
      test_no_overload_worst_link;
    Alcotest.test_case "combinations: accumulator == naive" `Quick
      test_combinations;
    Alcotest.test_case "brute == pruned: chain" `Quick test_chain_sound;
    Alcotest.test_case "brute == pruned: ring, k=2" `Quick test_ring_sound;
    Alcotest.test_case "tier 1: island failures carried" `Quick
      test_island_carries;
    Alcotest.test_case "tier 3: cut verdicts vs simulation" `Quick
      test_cut_vs_simulation;
    Alcotest.test_case "sampling is explicit and reported" `Quick
      test_sampling_reported;
    Alcotest.test_case "plan: decisions on the fixed topology" `Quick
      test_plan_decisions;
    Alcotest.test_case "plan: k=2 classes vs brute force" `Quick
      test_plan_pairs;
    Alcotest.test_case "trace: whatif.analyze + whatif.simulate spans" `Quick
      test_whatif_spans;
    Alcotest.test_case "restriction == unrestricted reference: ring" `Quick
      test_restriction_plain;
    Alcotest.test_case "restriction == unrestricted reference: aggregate"
      `Quick test_restriction_aggregate;
    Alcotest.test_case
      "restriction == unrestricted reference: summary-only component" `Quick
      test_restriction_summary_component;
    Alcotest.test_case "restriction == unrestricted reference: small" `Quick
      test_restriction_small;
    qtest prop_random_topologies_sound;
    Alcotest.test_case "chaos matrix: brute == pruned grid" `Quick
      test_chaos_matrix;
    Alcotest.test_case "brute == pruned: IS-IS loopback under an aggregate"
      `Quick test_isis_aggregate_chain;
    Alcotest.test_case "plan pins: wan and small partitions" `Quick
      test_plan_pins;
    Alcotest.test_case "IS-IS aggregate matrix: brute == pruned grid" `Quick
      test_isis_aggregate_matrix;
    Alcotest.test_case "scenario model == rebuilt model: wan" `Quick
      test_scenario_model_wan;
    qtest prop_scenario_model_random;
  ]
