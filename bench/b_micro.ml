(* Bechamel micro-benchmarks of the hot inner operations: one Test.make
   per core primitive (trie LPM, EC keying, the BGP decision step, policy
   evaluation, RCL filtering/aggregation, flow-EC keying). *)

open Bechamel
open Hoyan_net
module G = Hoyan_workload.Generator
module Types = Hoyan_config.Types
module Policy = Hoyan_config.Policy
module Vsb = Hoyan_config.Vsb
module Bgp = Hoyan_proto.Bgp
module Ec = Hoyan_sim.Ec
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Rcl_parser = Hoyan_rcl.Parser
module Rcl_semantics = Hoyan_rcl.Semantics

let pfx = Prefix.of_string_exn

let tests () =
  let g = Lazy.force B_common.small in
  let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
  (* trie LPM over the busiest device's FIB *)
  let fibs = Traffic_sim.build_fibs rib in
  let dev = List.hd g.G.borders in
  let probe = Ip.of_string_exn "100.0.0.77" in
  let lpm =
    Test.make ~name:"trie LPM (one lookup)"
      (Staged.stage (fun () -> Traffic_sim.fib_lookup fibs dev probe))
  in
  (* route EC keying *)
  let sig_ctx = Ec.signature_ctx g.G.model.Hoyan_sim.Model.configs in
  let some_route = List.hd g.G.input_routes in
  let ec_key =
    Test.make ~name:"route EC match signature"
      (Staged.stage (fun () ->
           Ec.match_signature sig_ctx some_route.Route.prefix))
  in
  (* the BGP decision step on 8 candidates *)
  let candidates =
    List.init 8 (fun i ->
        Route.make ~device:"X" ~prefix:(pfx "99.0.0.0/24")
          ~nexthop:(Ip.v4_of_octets 10 0 0 i)
          ~local_pref:(100 + (i mod 3))
          ~as_path:(As_path.of_asns [ 7018; 7018 + i ])
          ~source:Route.Ebgp ())
  in
  let ctx =
    Hoyan_sim.Model.Smap.find dev g.G.model.Hoyan_sim.Model.net
  in
  let decide =
    Test.make ~name:"BGP decision (8 candidates)"
      (Staged.stage (fun () -> Bgp.select ctx candidates))
  in
  (* policy evaluation *)
  let cfg = Option.get (Hoyan_sim.Model.config g.G.model dev) in
  let policy_name =
    match Types.Smap.choose_opt cfg.Types.dc_policies with
    | Some (name, _) -> Some name
    | None -> None
  in
  let policy_eval =
    Test.make ~name:"route-policy evaluation"
      (Staged.stage (fun () ->
           Policy.eval cfg Vsb.vendor_a policy_name some_route))
  in
  (* RCL filter + aggregate over the full small-WAN RIB *)
  let rcl_ast =
    Rcl_parser.parse_exn
      "POST||(communities has 64512:100) |> distCnt(nexthop) >= 0"
  in
  let rcl_eval =
    Test.make ~name:"RCL filter+aggregate over the RIB"
      (Staged.stage (fun () ->
           Rcl_semantics.eval_intent rcl_ast ~pre:rib ~post:rib))
  in
  (* flow EC keying: the O(devices) reference vs the precomputed
     union-trie path used by Traffic_sim.run *)
  let flow = List.hd g.G.flows in
  let flow_key =
    Test.make ~name:"flow EC key (LPM vector over all FIBs)"
      (Staged.stage (fun () -> Traffic_sim.flow_ec_key g.G.model fibs flow))
  in
  let ecx = Traffic_sim.ec_ctx g.G.model fibs in
  let flow_key_pre =
    Test.make ~name:"flow EC key (precomputed union trie)"
      (Staged.stage (fun () -> Traffic_sim.flow_ec_key_pre ecx flow))
  in
  (* FIB construction over the full small-WAN RIB: one pass per device
     chunk, the devices on domains *)
  let fib_build =
    Test.make ~name:"FIB build (one pass per device chunk, small RIB)"
      (Staged.stage (fun () -> Traffic_sim.build_fibs rib))
  in
  (* the BGP fixpoint on a slice of inputs: dominated by the per-
     (vrf, prefix) adj-rib-in and loc-rib table work *)
  let bgp_inputs = List.filteri (fun i _ -> i < 100) g.G.input_routes in
  let bgp_fixpoint =
    Test.make ~name:"BGP fixpoint (small WAN, 100 inputs)"
      (Staged.stage (fun () ->
           Bgp.run g.G.model.Hoyan_sim.Model.net
             {
               Bgp.in_routes = bgp_inputs;
               in_local_tables = g.G.model.Hoyan_sim.Model.local_tables;
             }))
  in
  [
    lpm; ec_key; decide; policy_eval; rcl_eval; flow_key; flow_key_pre;
    fib_build; bgp_fixpoint;
  ]

let run () =
  B_common.header "Micro-benchmarks (bechamel)";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let analyze = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  List.iter
    (fun test ->
      List.iter
        (fun (elt : Test.Elt.t) ->
          let raw = Benchmark.run cfg instances elt in
          let ols = Analyze.one analyze Toolkit.Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> e
            | _ -> nan
          in
          B_common.row "%-42s %12.1f ns/op" (Test.Elt.name elt) ns)
        (Test.elements test))
    (tests ())
