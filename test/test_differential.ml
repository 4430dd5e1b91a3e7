(* The differential change-impact pass (lib/analysis/differential.ml):
   the semantic config diff, the HOY030..HOY037 plan-risk checks, the
   blast-radius engine, and the relational carry-over rule.

   The soundness contract under test: the statically computed dirty
   region over-approximates — every (prefix, device) whose simulated
   route state differs between the base and the patched run must be
   inside it, so a carried-over intent verdict can never be wrong. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Defects = Hoyan_workload.Defects
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Printer = Hoyan_config.Printer
module D = Hoyan_analysis.Diagnostics
module Lint = Hoyan_analysis.Lint
module Differential = Hoyan_analysis.Differential
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Smap = Types.Smap
module Intents = Hoyan_core.Intents
module Preprocess = Hoyan_core.Preprocess
module VR = Hoyan_core.Verify_request

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let pfx = Prefix.of_string_exn

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4243 |]) t

let small = lazy (G.generate G.small)

let input_of (g : G.t) =
  Lint.make ~topo:g.G.model.Model.topo ~render:false g.G.model.Model.configs

let devices_of (g : G.t) =
  List.map fst (Smap.bindings g.G.model.Model.configs)

let has_code code diags =
  List.exists (fun (d : D.t) -> String.equal d.D.d_code code) diags

(* --- the empty plan is a semantic no-op end to end ------------------ *)

let test_empty_plan () =
  let g = Lazy.force small in
  let d = Differential.diff (input_of g) (Cp.make "empty") in
  check tbool "empty plan classifies as no-op" true
    (d.Differential.df_class = Differential.No_op);
  check tint "empty plan has no device diffs" 0
    (List.length d.Differential.df_devices);
  check
    Alcotest.(list string)
    "empty plan yields no diagnostics" []
    (List.map D.to_string
       (Differential.check ~input_routes:g.G.input_routes d));
  let im = Differential.impact d ~input_routes:g.G.input_routes in
  check tint "empty plan dirties no prefix" 0
    (Prefix.Set.cardinal im.Differential.im_prefixes);
  check tint "empty plan dirties no device" 0
    (List.length im.Differential.im_devices)

let prop_empty_plan_carries_everything =
  let g = Lazy.force small in
  let d = Differential.diff (input_of g) (Cp.make "empty") in
  let prefixes =
    Array.of_list
      (List.sort_uniq Prefix.compare
         (List.map (fun (r : Route.t) -> r.Route.prefix) g.G.input_routes))
  in
  QCheck.Test.make ~name:"empty plan: every prefix carries over" ~count:100
    (QCheck.make QCheck.Gen.(int_bound (Array.length prefixes - 1)))
    (fun i ->
      Differential.carries_over d ~input_routes:g.G.input_routes prefixes.(i))

(* --- diff base base = empty: restating config is a semantic no-op --- *)

let prop_restatement_is_noop =
  let g = Lazy.force small in
  let input = input_of g in
  let devices = Array.of_list (devices_of g) in
  (* every device exactly once, in order *)
  let next = ref (-1) in
  QCheck.Test.make ~name:"re-stating a device's own config diffs to nothing"
    ~count:(Array.length devices)
    (QCheck.make ~print:(fun i -> devices.(i)) (fun _ ->
         incr next;
         !next mod Array.length devices))
    (fun i ->
      let dev = devices.(i) in
      let cfg = Smap.find dev input.Lint.li_configs in
      let plan =
        Cp.make "restate" ~commands:[ (dev, Printer.print cfg) ]
      in
      let d = Differential.diff input plan in
      let dd = List.hd d.Differential.df_devices in
      dd.Differential.dd_changes = []
      && d.Differential.df_class = Differential.No_op
      (* a textually non-empty no-op block is exactly HOY030 *)
      && has_code "HOY030" (Differential.check d))

(* --- applying the same block twice adds nothing the second time ----- *)

let test_adds_idempotent () =
  let g = Lazy.force small in
  let input = input_of g in
  let dev =
    fst
      (List.hd
         (List.filter
            (fun (_, (c : Types.t)) -> c.Types.dc_vendor = "vendorA")
            (Smap.bindings input.Lint.li_configs)))
  in
  let asn = (Smap.find dev input.Lint.li_configs).Types.dc_bgp.Types.bgp_asn in
  let block =
    Printf.sprintf
      "ip prefix-list DIFF_T seq 5 permit 203.0.113.0/24 le 32\n\
       router bgp %d\n\
      \ network 198.51.100.0/24\n"
      asn
  in
  let plan dev = Cp.make "twice" ~commands:[ (dev, block) ] in
  let d1 = Differential.diff input (plan dev) in
  let dd1 = List.hd d1.Differential.df_devices in
  check tbool "first application changes the config" true
    (dd1.Differential.dd_changes <> []);
  (* re-apply on top of the patched input: nothing left to add *)
  let d2 = Differential.diff d1.Differential.df_patched_input (plan dev) in
  let dd2 = List.hd d2.Differential.df_devices in
  check
    Alcotest.(list string)
    "second application is a semantic no-op" []
    (List.map
       (fun (c : Differential.stanza_change) ->
         Differential.stanza_to_string c.Differential.sc_stanza)
       dd2.Differential.dd_changes)

(* --- HOY030 counts only the lines that took effect ------------------ *)

let test_noop_counts_applied_lines () =
  let g = Lazy.force small in
  let input = input_of g in
  let dev = "r00-bdr01" in
  let hoy030 block =
    let plan = Cp.make "b" ~commands:[ (dev, block) ] in
    Differential.check (Differential.diff input plan)
    |> List.filter_map (fun (d : D.t) ->
           if String.equal d.D.d_code "HOY030" then Some d.D.d_message
           else None)
  in
  let restate = Printer.print (Smap.find dev input.Lint.li_configs) in
  let lines =
    List.length
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' restate))
  in
  let says n =
    [
      Printf.sprintf
        "%d command line(s) leave the semantic config unchanged: the block \
         re-states existing configuration"
        n;
    ]
  in
  check
    Alcotest.(list string)
    "a block whose lines all failed re-states nothing" []
    (hoy030 "router bgp 64512\n bogus-command 1 2 3\n no route-map NOPE 10\n");
  check Alcotest.(list string) "a true restatement is HOY030" (says lines)
    (hoy030 restate);
  check
    Alcotest.(list string)
    "a failed line is not counted as re-stated" (says lines)
    (hoy030 (restate ^ "bogus-command 1 2 3\n"))

(* --- HOY030..HOY037: every injected defect class is detected -------- *)

let test_injection_classes () =
  let g = Lazy.force small in
  List.iter
    (fun cls ->
      let inj = Defects.inject g cls in
      let diags = Defects.detect inj in
      check tbool
        (Printf.sprintf "%s (%s) fires" cls inj.Defects.inj_code)
        true
        (has_code inj.Defects.inj_code diags))
    [
      "plan-semantic-noop";
      "plan-wrong-dialect";
      "plan-edits-dead-term";
      "plan-widens-ebgp-transit";
      "plan-breaks-session";
      "plan-removes-origination";
      "plan-withdraws-unknown-prefix";
      "plan-impact-summary";
    ]

let test_clean_plan_quiet () =
  (* a genuinely effective, well-formed plan raises no plan-risk warnings
     apart from the informational blast-radius summary *)
  let g = Lazy.force small in
  let input = input_of g in
  let dev =
    fst
      (List.hd
         (List.filter
            (fun (_, (c : Types.t)) -> c.Types.dc_vendor = "vendorA")
            (Smap.bindings input.Lint.li_configs)))
  in
  let asn = (Smap.find dev input.Lint.li_configs).Types.dc_bgp.Types.bgp_asn in
  let plan =
    Cp.make "clean"
      ~commands:
        [ (dev, Printf.sprintf "router bgp %d\n network 198.51.100.0/24\n" asn) ]
  in
  let d = Differential.diff input plan in
  let diags = Differential.check ~input_routes:g.G.input_routes d in
  check
    Alcotest.(list string)
    "only the HOY037 summary fires"
    [ "HOY037" ]
    (List.map (fun (dg : D.t) -> dg.D.d_code) diags)

(* --- soundness: simulated verdict changes lie inside the dirty region *)

module PS = Set.Make (struct
  type t = string * string (* device, prefix *)

  let compare = compare
end)

let rib_presence (rib : Rib.t) : PS.t =
  List.fold_left
    (fun s (r : Route.t) ->
      PS.add (r.Route.device, Prefix.to_string r.Route.prefix) s)
    PS.empty (Rib.to_list rib)

(* Simulate base and patched, then demand that every prefix whose
   presence on any device changed is statically marked affected and not
   carried over (the rule the Diff stage reads). *)
let assert_sound (g : G.t) (plan : Cp.t) =
  let input = input_of g in
  let d = Differential.diff input plan in
  let base_rib =
    (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib
  in
  let patched_model, _ = Model.apply_change_plan g.G.model plan in
  let surviving =
    List.filter
      (fun (r : Route.t) ->
        not (List.exists (Prefix.equal r.Route.prefix) plan.Cp.cp_withdraw))
      g.G.input_routes
  in
  let patched_rib =
    (Route_sim.run patched_model
       ~input_routes:(surviving @ plan.Cp.cp_new_routes)
       ())
      .Route_sim.rib
  in
  let b = rib_presence base_rib and p = rib_presence patched_rib in
  let changed = PS.union (PS.diff b p) (PS.diff p b) in
  PS.iter
    (fun (dev, ps) ->
      let affected =
        Differential.prefix_affected d ~input_routes:g.G.input_routes
          (pfx ps)
      in
      let carried =
        Differential.carries_over d ~input_routes:g.G.input_routes (pfx ps)
      in
      if carried || not affected then
        Alcotest.failf
          "UNSOUND: %s's presence changed on %s under plan %s but the \
           differential pass carried it over"
          ps dev plan.Cp.cp_name)
    changed;
  changed

(* An aggregate over [p]'s /16 on [dev], plain or summary-only: a
   summary-only aggregate suppresses its components downstream. *)
let aggregate_plan ~summary_only dev asn (p : Prefix.t) =
  Cp.make
    (if summary_only then "aggregate-summary-only" else "aggregate")
    ~commands:
      [
        ( dev,
          Printf.sprintf "router bgp %d\n aggregate-address %s%s\n" asn
            (Prefix.to_string (Prefix.make (Prefix.ip p) 16))
            (if summary_only then " summary-only" else "") );
      ]

let hand_plans (g : G.t) : Cp.t list =
  let input = input_of g in
  let configs = input.Lint.li_configs in
  let vendor_a =
    List.filter
      (fun (_, (c : Types.t)) ->
        c.Types.dc_vendor = "vendorA"
        && c.Types.dc_bgp.Types.bgp_neighbors <> [])
      (Smap.bindings configs)
  in
  let dev, dev_cfg = List.hd vendor_a in
  let asn = dev_cfg.Types.dc_bgp.Types.bgp_asn in
  let some_nb =
    (List.hd dev_cfg.Types.dc_bgp.Types.bgp_neighbors).Types.nb_addr
  in
  let first_prefix =
    (List.hd g.G.input_routes).Route.prefix
  in
  [
    Cp.make "noop" ~commands:[ (dev, "! nothing to see here\n") ];
    Cp.make "del-neighbor"
      ~commands:
        [ (dev, Printf.sprintf "no router bgp neighbor %s\n"
             (Ip.to_string some_nb)) ];
    Cp.make "add-network"
      ~commands:
        [ (dev, Printf.sprintf "router bgp %d\n network 198.51.100.0/24\n" asn) ];
    Cp.make "open-sessions"
      ~commands:
        [
          ( dev,
            Printf.sprintf
              "router bgp %d\n\
              \ neighbor 192.0.2.201 remote-as 65201\n\
              \ neighbor 192.0.2.202 remote-as 65202\n"
              asn );
        ];
    Cp.make "withdraw" ~withdraw:[ first_prefix ];
    Cp.make "announce"
      ~new_routes:
        [ Route.make ~device:dev ~prefix:(pfx "198.51.100.0/24") () ];
    aggregate_plan ~summary_only:false "r00-bdr01" 64512 (pfx "150.0.0.0/16");
    aggregate_plan ~summary_only:true "r00-bdr01" 64512 (pfx "150.0.0.0/16");
  ]

let test_soundness_hand_plans () =
  let g = Lazy.force small in
  let any_changed = ref false in
  List.iter
    (fun plan ->
      let changed = assert_sound g plan in
      if not (PS.is_empty changed) then any_changed := true)
    (hand_plans g);
  (* the cross-check only means something if some plan really moved the
     simulated state *)
  check tbool "at least one hand plan changed simulated state" true
    !any_changed

let prop_soundness_generated =
  let g = Lazy.force small in
  let input = input_of g in
  let devices =
    Array.of_list
      (List.filter
         (fun dev ->
           (Smap.find dev input.Lint.li_configs).Types.dc_bgp
             .Types.bgp_neighbors
           <> [])
         (devices_of g))
  in
  let prefixes =
    Array.of_list
      (List.sort_uniq Prefix.compare
         (List.map (fun (r : Route.t) -> r.Route.prefix) g.G.input_routes))
  in
  (* the aggregate shapes use vendor-A syntax *)
  let vendor_a =
    Array.of_list
      (List.filter
         (fun dev ->
           (Smap.find dev input.Lint.li_configs).Types.dc_vendor = "vendorA")
         (Array.to_list devices))
  in
  let gen =
    QCheck.Gen.(
      pair
        (int_bound (Array.length devices - 1))
        (pair (int_bound 5) (int_bound (Array.length prefixes - 1))))
  in
  QCheck.Test.make ~name:"soundness holds over generated plans" ~count:12
    (QCheck.make gen)
    (fun (di, (ti, pi)) ->
      let dev = devices.(di) in
      let asn =
        (Smap.find dev input.Lint.li_configs).Types.dc_bgp.Types.bgp_asn
      in
      let plan =
        match ti with
        | 0 -> Cp.make "q-noop" ~commands:[ (dev, "! generated no-op\n") ]
        | 1 ->
            Cp.make "q-network"
              ~commands:
                [
                  ( dev,
                    Printf.sprintf "router bgp %d\n network 198.51.100.0/24\n"
                      asn );
                ]
        | 2 -> Cp.make "q-withdraw" ~withdraw:[ prefixes.(pi) ]
        | 4 | 5 ->
            let dev = vendor_a.(di mod Array.length vendor_a) in
            aggregate_plan ~summary_only:(ti = 5) dev
              (Smap.find dev input.Lint.li_configs).Types.dc_bgp.Types.bgp_asn
              prefixes.(pi)
        | _ ->
            let nb =
              (Smap.find dev input.Lint.li_configs).Types.dc_bgp
                .Types.bgp_neighbors
            in
            Cp.make "q-del-neighbor"
              ~commands:
                [
                  ( dev,
                    Printf.sprintf "no router bgp neighbor %s\n"
                      (Ip.to_string (List.hd nb).Types.nb_addr) );
                ]
      in
      ignore (assert_sound g plan);
      true)

(* --- Verify_request's Diff stage: carry-over wiring ----------------- *)

let base =
  lazy
    (let g = Lazy.force small in
     Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
       ~monitored_flows:g.G.flows)

let reach_intent (r : Route.t) =
  Intents.Route_reach
    {
      rr_prefix = r.Route.prefix;
      rr_devices = [ r.Route.device ];
      rr_expect = true;
    }

let test_vr_diff_noop_carries_all () =
  let g = Lazy.force small in
  let b = Lazy.force base in
  (* a vendor-A device: the "!" comment syntax below is its dialect *)
  let dev =
    fst
      (List.hd
         (List.filter
            (fun (_, (c : Types.t)) -> c.Types.dc_vendor = "vendorA")
            (Smap.bindings g.G.model.Model.configs)))
  in
  (* intents over the pre-processed (rule-filtered) inputs: present in
     the base run by construction *)
  let intents =
    [
      reach_intent (List.nth b.Preprocess.b_input_routes 0);
      reach_intent (List.nth b.Preprocess.b_input_routes 1);
    ]
  in
  let rq =
    {
      VR.rq_name = "diff-noop";
      rq_plan = Cp.make "noop" ~commands:[ (dev, "! maintenance comment\n") ];
      rq_intents = intents;
    }
  in
  let r = VR.run ~stage:(VR.Diff VR.From_scratch) b rq in
  (match r.VR.vr_diff with
  | Some (cls, carried) ->
      check tbool "plan classified no-op" true (cls = Differential.No_op);
      check tint "both intents carried over" 2 (List.length carried)
  | None -> Alcotest.fail "Diff stage without a classification");
  check tbool "no fixpoint ran" true (r.VR.vr_route = VR.Resolved);
  check tbool "carried verdicts hold (base run passes them)" true r.VR.vr_ok

let test_vr_diff_partitions () =
  let g = Lazy.force small in
  let b = Lazy.force base in
  let r0 = List.nth g.G.input_routes 0 in
  (* pick a second monitored route on a different prefix *)
  let r1 =
    List.find
      (fun (r : Route.t) -> not (Prefix.equal r.Route.prefix r0.Route.prefix))
      g.G.input_routes
  in
  let rq =
    {
      VR.rq_name = "diff-withdraw";
      rq_plan = Cp.make "withdraw" ~withdraw:[ r0.Route.prefix ];
      rq_intents = [ reach_intent r0; reach_intent r1 ];
    }
  in
  let r = VR.run ~stage:(VR.Diff VR.From_scratch) b rq in
  let cls, carried = Option.get r.VR.vr_diff in
  check tbool "withdrawal is a propagating change" true
    (cls = Differential.Propagating);
  check tbool "the withdrawn prefix's intent is NOT carried" false
    (List.exists
       (fun i ->
         match i with
         | Intents.Route_reach { rr_prefix; _ } ->
             Prefix.equal rr_prefix r0.Route.prefix
         | _ -> false)
       carried);
  (* consistency: whatever was carried must be exactly what the
     differential pass says carries over *)
  let input = input_of g in
  let d = Differential.diff input rq.VR.rq_plan in
  List.iter
    (fun i ->
      match i with
      | Intents.Route_reach { rr_prefix; _ } ->
          check tbool "carried intent is outside the dirty region" true
            (Differential.carries_over d ~input_routes:g.G.input_routes
               rr_prefix)
      | _ -> ())
    carried

(* --- plan application: Differential and Model apply plans alike ---- *)

(* Plans the other unit tests never build: two blocks on one device, a
   block for a device the network lacks, and a device added by the plan
   and then configured by a block. *)
let application_plans (g : G.t) : Cp.t list =
  let configs = (input_of g).Lint.li_configs in
  let dev, dev_cfg =
    List.find
      (fun (_, (c : Types.t)) ->
        c.Types.dc_vendor = "vendorA"
        && c.Types.dc_bgp.Types.bgp_neighbors <> [])
      (Smap.bindings configs)
  in
  let asn = dev_cfg.Types.dc_bgp.Types.bgp_asn in
  let some_nb =
    (List.hd dev_cfg.Types.dc_bgp.Types.bgp_neighbors).Types.nb_addr
  in
  let network p = Printf.sprintf "router bgp %d\n network %s\n" asn p in
  let peer = fst (List.hd (List.rev (Smap.bindings configs))) in
  let fresh =
    {
      Topology.name = "zz-new01";
      vendor = "vendorA";
      asn;
      router_id = Ip.of_string_exn "10.254.0.1";
      region = "r00";
      role = Topology.Wan_core;
    }
  in
  [
    Cp.make "two-blocks"
      ~commands:
        [
          (dev, network "198.51.100.0/24");
          ( dev,
            network "198.51.101.0/24"
            ^ Printf.sprintf "no router bgp neighbor %s\n"
                (Ip.to_string some_nb) );
        ];
    Cp.make "unknown-device"
      ~commands:
        [ ("no-such-router", network "198.51.100.0/24");
          (dev, network "198.51.102.0/24") ];
    Cp.make "add-device"
      ~topo_ops:
        [
          Cp.Add_device fresh;
          Cp.Add_link
            { la = fresh.Topology.name; la_if = "Eth0"; lb = peer;
              lb_if = "Eth99"; l_bandwidth = 10e9 };
        ]
      ~commands:
        [
          ( fresh.Topology.name,
            Printf.sprintf
              "interface Eth0\n ip address 10.254.1.1/31\n\
               router bgp %d\n network 198.51.103.0/24\n"
              asn );
        ];
  ]

let test_plan_application () =
  let g = Lazy.force small in
  let input = input_of g in
  List.iter
    (fun (plan : Cp.t) ->
      let name = plan.Cp.cp_name in
      let d = Differential.diff input plan in
      let m, reports = Model.apply_change_plan g.G.model plan in
      let patched = d.Differential.df_patched_input in
      check tbool (name ^ ": patched configs agree") true
        (Smap.equal ( = ) patched.Lint.li_configs m.Model.configs);
      let topo = Option.get patched.Lint.li_topo in
      check
        Alcotest.(list string)
        (name ^ ": patched devices agree")
        (Topology.device_names m.Model.topo)
        (Topology.device_names topo);
      check tbool (name ^ ": patched links agree") true
        (Topology.edges topo = Topology.edges m.Model.topo);
      check tbool (name ^ ": reports agree") true
        (List.map Cp.step_report d.Differential.df_steps = reports);
      check tint
        (name ^ ": one report per block")
        (List.length plan.Cp.cp_commands)
        (List.length reports);
      (* per device, the block diffs chain from the pre-block config to
         the patched one *)
      let by_dev = Hashtbl.create 8 in
      List.iter
        (fun (dd : Differential.device_diff) ->
          let dev = dd.Differential.dd_device in
          (match Hashtbl.find_opt by_dev dev with
          | Some (prev : Types.t) ->
              check tbool (name ^ ": block diffs compose on " ^ dev) true
                (prev = dd.Differential.dd_base)
          | None ->
              check tbool (name ^ ": first block starts from the base") true
                (match Smap.find_opt dev input.Lint.li_configs with
                | Some base -> base = dd.Differential.dd_base
                | None -> dd.Differential.dd_base.Types.dc_ifaces = []));
          Hashtbl.replace by_dev dev dd.Differential.dd_patched)
        d.Differential.df_devices;
      Hashtbl.iter
        (fun dev last ->
          check tbool (name ^ ": last block yields the patched config") true
            (Smap.find_opt dev m.Model.configs = Some last))
        by_dev)
    (application_plans g);
  match application_plans g with
  | [ two; unknown; added ] ->
      let d = Differential.diff input two in
      check tint "two blocks on one device: two device diffs" 2
        (List.length d.Differential.df_devices);
      let d = Differential.diff input unknown in
      check tint "an unknown device gets no device diff" 1
        (List.length d.Differential.df_devices);
      check tbool "an unknown device is reported" true
        (List.exists
           (fun (r : Cp.apply_report) ->
             r.Cp.ar_device = "no-such-router" && r.Cp.ar_issues <> [])
           (List.map Cp.step_report d.Differential.df_steps));
      let d = Differential.diff input added in
      check tbool "the added device's block applied cleanly" true
        (List.for_all
           (fun (r : Cp.apply_report) -> r.Cp.ar_issues = [])
           (List.map Cp.step_report d.Differential.df_steps));
      check tbool "the added device is configured" true
        (match
           Smap.find_opt "zz-new01"
             d.Differential.df_patched_input.Lint.li_configs
         with
        | Some cfg -> cfg.Types.dc_ifaces <> []
        | None -> false)
  | _ -> assert false

(* --- one rule for a plan's application issues ---------------------- *)

(* [hoyan diff] ([Differential.check]) and [hoyan lint --plan]
   ([Lint.run]) report the same HOY012-HOY014 findings: a block that
   does not parse or delete, a block on a typo'd device, topology ops on
   an unknown device or a missing link, and none for a clean plan. *)
let test_plan_findings_agree () =
  let g = Lazy.force small in
  let topo = g.G.model.Model.topo and configs = g.G.model.Model.configs in
  let plan_lines diags =
    List.filter_map
      (fun (d : D.t) ->
        if List.mem d.D.d_code [ "HOY012"; "HOY013"; "HOY014" ] then
          Some (D.to_string d)
        else None)
      diags
  in
  let network = "router bgp 64512\n network 198.51.100.0/24\n" in
  let devices = devices_of g in
  let a = List.hd devices in
  let unlinked =
    List.find
      (fun b ->
        b <> a
        && Topology.edge_between topo a b = None
        && Topology.edge_between topo b a = None)
      devices
  in
  List.iter
    (fun (plan, findings) ->
      let name = plan.Cp.cp_name in
      let from_diff =
        Differential.check ~input_routes:g.G.input_routes
          (Differential.diff (Lint.make ~topo configs) plan)
      in
      let from_lint = Lint.run (Lint.make ~topo ~plan configs) in
      check
        Alcotest.(list string)
        (name ^ ": hoyan diff = hoyan lint")
        (plan_lines from_lint) (plan_lines from_diff);
      check tint
        (name ^ ": findings")
        findings
        (List.length (plan_lines from_lint)))
    [
      ( Cp.make "broken-block"
          ~commands:
            [
              ( "r00-bdr01",
                "router bgp 64512\n bogus-command 1 2 3\n\
                \ no route-map NOPE 10\n" );
            ],
        2 );
      (Cp.make "typo-device" ~commands:[ ("r00-bdr99", network) ], 1);
      ( Cp.make "unknown-topo-device"
          ~topo_ops:[ Cp.Remove_device "zz-ghost01" ],
        1 );
      ( Cp.make "missing-link"
          ~topo_ops:[ Cp.Remove_link { ra = a; rb = unlinked } ],
        1 );
      (Cp.make "clean" ~commands:[ ("r00-bdr01", network) ], 0);
      ( Cp.make "block-on-removed-device"
          ~topo_ops:[ Cp.Remove_device "r00-bdr01" ]
          ~commands:[ ("r00-bdr01", network) ],
        1 );
    ]

let suite =
  [
    Alcotest.test_case "empty plan is a no-op" `Quick test_empty_plan;
    Alcotest.test_case "plan application agrees with the model" `Quick
      test_plan_application;
    qtest prop_empty_plan_carries_everything;
    qtest prop_restatement_is_noop;
    Alcotest.test_case "re-applying a block is idempotent" `Quick
      test_adds_idempotent;
    Alcotest.test_case "HOY030 counts only applied lines" `Quick
      test_noop_counts_applied_lines;
    Alcotest.test_case "HOY030-HOY037 injection classes fire" `Quick
      test_injection_classes;
    Alcotest.test_case "clean effective plan stays quiet" `Quick
      test_clean_plan_quiet;
    Alcotest.test_case "soundness: hand-written plans" `Slow
      test_soundness_hand_plans;
    qtest prop_soundness_generated;
    Alcotest.test_case "VR ?diff: no-op carries everything" `Quick
      test_vr_diff_noop_carries_all;
    Alcotest.test_case "VR ?diff: affected/carried partition" `Quick
      test_vr_diff_partitions;
    Alcotest.test_case "plan findings: hoyan diff = hoyan lint" `Quick
      test_plan_findings_agree;
  ]
