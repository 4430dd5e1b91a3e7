(* The static-analysis (lint) subsystem: the clean generated corpus must
   lint clean (zero false positives), every injected defect class must
   fire its cataloged code on the right device, and the containment
   reasoning behind the shadowing checks must match the prefix-list
   match semantics. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module D = Hoyan_analysis.Diagnostics
module Lint = Hoyan_analysis.Lint
module G = Hoyan_workload.Generator
module Defects = Hoyan_workload.Defects
module Model = Hoyan_sim.Model
module VR = Hoyan_core.Verify_request

let small = lazy (G.generate G.small)

let lint_clean (g : G.t) =
  Lint.run
    (Lint.make ~topo:g.G.model.Model.topo g.G.model.Model.configs)

(* --- zero false positives on the clean corpus ---------------------- *)

let test_clean_corpus () =
  let g = Lazy.force small in
  let diags = lint_clean g in
  Alcotest.(check (list string))
    "clean small corpus lints clean"
    []
    (List.map D.to_string diags)

(* --- every injected defect class fires its code -------------------- *)

let test_injections () =
  let g = Lazy.force small in
  List.iter
    (fun (inj : Defects.injected) ->
      let diags = Defects.detect inj in
      let fired =
        List.filter
          (fun (d : D.t) -> String.equal d.D.d_code inj.Defects.inj_code)
          diags
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s fires %s" inj.Defects.inj_class
           inj.Defects.inj_code)
        true (fired <> []);
      (* location: the diagnostic lands on the device the defect was
         planted on *)
      match inj.Defects.inj_device with
      | None -> ()
      | Some dev ->
          Alcotest.(check bool)
            (Printf.sprintf "%s locates device %s" inj.Defects.inj_class dev)
            true
            (List.exists
               (fun (d : D.t) -> d.D.d_loc.D.loc_device = Some dev)
               fired))
    (Defects.inject_all g)

(* config-level defects must also carry a line number into the rendered
   config (the plan/RCL classes have no device text to anchor to) *)
let test_injection_lines () =
  let g = Lazy.force small in
  let line_classes =
    [
      "undefined-prefix-list"; "undefined-community-list";
      "undefined-aspath-filter"; "undefined-route-policy"; "undefined-acl";
      "ebgp-missing-policy"; "shadowed-policy-term"; "shadowed-prefix-entry";
      "invalid-aspath-regex"; "vrf-import-no-exporter";
      "vrf-export-no-importer"; "undefined-interface";
    ]
  in
  List.iter
    (fun cls ->
      let inj = Defects.inject g cls in
      let fired =
        List.filter
          (fun (d : D.t) -> String.equal d.D.d_code inj.Defects.inj_code)
          (Lint.run inj.Defects.inj_input)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s carries a line number" cls)
        true
        (List.exists (fun (d : D.t) -> d.D.d_loc.D.loc_line <> None) fired))
    line_classes

(* --- entry containment mirrors prefix_entry_matches ---------------- *)

let entry seq s ge le =
  {
    Types.pe_seq = seq;
    pe_action = Types.Permit;
    pe_prefix = Prefix.of_string_exn s;
    pe_ge = ge;
    pe_le = le;
  }

let test_entry_covers () =
  let chk name expected a b =
    Alcotest.(check bool) name expected (Lint.entry_covers a b)
  in
  chk "10/8 le 32 covers 10.1/16 le 24" true
    (entry 1 "10.0.0.0/8" None (Some 32))
    (entry 2 "10.1.0.0/16" None (Some 24));
  chk "10/8 (exact) does not cover 10.1/16" false
    (entry 1 "10.0.0.0/8" None None)
    (entry 2 "10.1.0.0/16" None None);
  chk "10/8 ge 16 le 24 covers 10.1/16 exact" true
    (entry 1 "10.0.0.0/8" (Some 16) (Some 24))
    (entry 2 "10.1.0.0/16" None None);
  chk "10/8 ge 17 does not cover 10.1/16 exact" false
    (entry 1 "10.0.0.0/8" (Some 17) None)
    (entry 2 "10.1.0.0/16" None None);
  chk "disjoint prefixes never cover" false
    (entry 1 "10.0.0.0/8" None (Some 32))
    (entry 2 "192.168.0.0/16" None None);
  chk "families never mix" false
    (entry 1 "::/0" None (Some 128))
    (entry 2 "10.1.0.0/16" None None);
  (* a ge below the prefix length is clamped to it: 10.1/16 ge 4 matches
     10.1/16 .. /32, all inside 10/8 le 32 *)
  chk "10/8 le 32 covers 10.1/16 ge 4" true
    (entry 1 "10.0.0.0/8" None (Some 32))
    (entry 2 "10.1.0.0/16" (Some 4) None);
  chk "10/8 ge 16 covers 10.1/16 le 40" true
    (entry 1 "10.0.0.0/8" (Some 16) None)
    (entry 2 "10.1.0.0/16" None (Some 40))

(* Brute force over every prefix under one /28: entries placed inside it
   match only prefixes of the universe, so [entry_covers a b] must hold
   exactly when each prefix [b] matches is matched by [a] — for a [b]
   that matches something.  ge/le range over 0..34, in and out of range
   of the entry's prefix length and the family width. *)
let prop_entry_covers_exact =
  let base = Prefix.of_string_exn "10.0.0.0/28" in
  let universe =
    List.concat_map
      (fun len ->
        List.init (1 lsl (len - 28)) (fun i ->
            Prefix.make (Ip.V4 (0x0a000000 + (i lsl (32 - len)))) len))
      [ 28; 29; 30; 31; 32 ]
  in
  assert (List.for_all (Prefix.subsumes base) universe);
  let gen_entry =
    QCheck.Gen.(
      let bound = opt ~ratio:0.6 (int_bound 34) in
      map3
        (fun p ge le -> entry 1 (Prefix.to_string p) ge le)
        (oneofl universe) bound bound)
  in
  let print_entry (e : Types.prefix_entry) =
    Printf.sprintf "%s ge %s le %s"
      (Prefix.to_string e.Types.pe_prefix)
      (Option.fold ~none:"-" ~some:string_of_int e.Types.pe_ge)
      (Option.fold ~none:"-" ~some:string_of_int e.Types.pe_le)
  in
  QCheck.Test.make ~name:"entry_covers is exact on a /28" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> print_entry a ^ " / " ^ print_entry b)
       QCheck.Gen.(pair gen_entry gen_entry))
    (fun (a, b) ->
      let matched e = List.filter (Types.prefix_entry_matches e) universe in
      let mb = matched b in
      QCheck.assume (mb <> []);
      let ma = matched a in
      Lint.entry_covers a b = List.for_all (fun p -> List.mem p ma) mb)

let test_shadowed_entries () =
  let pl =
    {
      Types.pl_name = "P";
      pl_family = Ip.Ipv4;
      pl_entries =
        [
          entry 5 "10.0.0.0/8" None (Some 32);
          entry 10 "10.1.0.0/16" None (Some 24);
          entry 15 "192.168.0.0/16" None None;
        ];
    }
  in
  match Lint.shadowed_entries pl with
  | [ (shadowed, by) ] ->
      Alcotest.(check int) "seq 10 is shadowed" 10 shadowed.Types.pe_seq;
      Alcotest.(check int) "by seq 5" 5 by.Types.pe_seq
  | l -> Alcotest.failf "expected one shadowed entry, got %d" (List.length l)

(* --- RCL checks ---------------------------------------------------- *)

let lint_spec spec =
  Lint.run (Lint.make ~specs:[ ("t", spec) ] Types.Smap.empty)

let codes ds = List.map (fun (d : D.t) -> d.D.d_code) ds

let test_rcl_checks () =
  Alcotest.(check (list string))
    "well-typed spec is clean" []
    (codes (lint_spec "POST || localPref = 200 |> count() = 0"));
  Alcotest.(check bool) "type confusion -> HOY016" true
    (List.mem "HOY016"
       (codes (lint_spec "POST || device = 100 |> count() = 0")));
  Alcotest.(check bool) "ordering a set -> HOY016" true
    (List.mem "HOY016"
       (codes (lint_spec "POST || communities > 10 |> count() = 0")));
  Alcotest.(check bool) "bad regex -> HOY017" true
    (List.mem "HOY017"
       (codes (lint_spec "POST || aspath matches \"(\" |> count() = 0")));
  Alcotest.(check bool) "contradictory bounds -> HOY018" true
    (List.mem "HOY018"
       (codes
          (lint_spec
             "POST || (localPref > 200 and localPref < 100) |> count() = 0")));
  Alcotest.(check bool) "satisfiable bounds are clean" true
    (not
       (List.mem "HOY018"
          (codes
             (lint_spec
                "POST || (localPref > 100 and localPref < 200) |> count() = 0"))));
  Alcotest.(check bool) "parse failure -> HOY015" true
    (List.mem "HOY015" (codes (lint_spec "PRE = ")))

(* --- the pre-simulation gate in Verify_request --------------------- *)

let test_gate () =
  let g = Lazy.force small in
  let base =
    Hoyan_core.Preprocess.prepare g.G.model
      ~monitored_routes:g.G.input_routes ~monitored_flows:g.G.flows
  in
  let bad_plan =
    Cp.make "bad" ~commands:[ ("no-such-device", "interface Eth0\n") ]
  in
  let rq =
    { VR.rq_name = "gated"; rq_plan = bad_plan; rq_intents = [] }
  in
  (* the Lint stage gates: stops before simulation *)
  let r = VR.run ~stage:VR.Lint base rq in
  Alcotest.(check bool) "gated request fails" false r.VR.vr_ok;
  Alcotest.(check bool) "gate reports being hit" true r.VR.vr_gated;
  Alcotest.(check bool) "gate produced diagnostics" true (r.VR.vr_lint <> []);
  Alcotest.(check (list string)) "no simulation ran" []
    (List.map (fun _ -> "route") (Rib.to_list r.VR.vr_updated_rib));
  (* Simulate: diagnostics recorded, run proceeds *)
  let r = VR.run ~stage:(VR.Simulate VR.From_scratch) base rq in
  Alcotest.(check bool) "Simulate does not gate" false r.VR.vr_gated;
  Alcotest.(check bool) "Simulate still reports" true (r.VR.vr_lint <> []);
  (* Precheck: no lint pass, nothing recorded *)
  let r = VR.run ~stage:VR.Precheck base rq in
  Alcotest.(check (list string)) "Precheck reports nothing" []
    (List.map D.to_string r.VR.vr_lint);
  (* a clean plan passes the Lint stage *)
  let ok_rq =
    { VR.rq_name = "clean"; rq_plan = Cp.make "noop"; rq_intents = [] }
  in
  let r = VR.run ~stage:VR.Lint base ok_rq in
  Alcotest.(check bool) "clean plan is not gated" false r.VR.vr_gated;
  Alcotest.(check bool) "clean plan passes" true r.VR.vr_ok

(* --- change-plan checks read the applied plan ------------------------ *)

let plan_findings ?(codes = [ "HOY012"; "HOY013"; "HOY014" ]) input plan =
  Lint.run { input with Lint.li_plan = Some plan }
  |> List.filter (fun (d : D.t) -> List.mem d.D.d_code codes)
  |> List.map (fun (d : D.t) ->
         (d.D.d_code, Option.value d.D.d_loc.D.loc_device ~default:"-"))
  |> List.sort_uniq compare

let findings = Alcotest.(list (pair string string))

(* a device a plan can add *)
let new_x =
  {
    Topology.name = "new-x";
    vendor = "vendorA";
    asn = 65100;
    router_id = Ip.of_string_exn "10.255.0.1";
    region = "r00";
    role = Topology.Wan_border;
  }

(* HOY012 (unknown device) and HOY013 (missing link, failed deletion)
   from topology ops and command blocks; a device the plan adds is
   known to the ops after it *)
let test_plan_checks_topology () =
  let g = Lazy.force small in
  let topo = g.G.model.Model.topo in
  let input = Lint.make ~topo g.G.model.Model.configs in
  let names = Topology.device_names topo in
  let linked a b =
    Topology.edge_between topo a b <> None
    || Topology.edge_between topo b a <> None
  in
  let a, b =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) names) names
    |> List.find (fun (a, b) -> a <> b && not (linked a b))
  in
  let vendor_a =
    List.find
      (fun n ->
        (Types.Smap.find n g.G.model.Model.configs).Types.dc_vendor
        = "vendorA")
      names
  in
  let plan =
    Cp.make "topo"
      ~topo_ops:
        [
          Cp.Remove_device "ghost";
          Cp.Add_link
            { la = a; la_if = "Eth90"; lb = "ghost2"; lb_if = "Eth0";
              l_bandwidth = 1. };
          Cp.Remove_link { ra = a; rb = b };
          Cp.Remove_link { ra = "ghost3"; rb = b };
          Cp.Add_device new_x;
          Cp.Add_link
            { la = a; la_if = "Eth91"; lb = "new-x"; lb_if = "Eth0";
              l_bandwidth = 1. };
        ]
      ~commands:
        [
          ("no-such-device", "interface Eth0\n");
          (vendor_a, "no route-map NO_SUCH_RM 10\n");
        ]
  in
  Alcotest.check findings "plan findings"
    (List.sort compare
       [
         ("HOY012", "ghost"); ("HOY012", "ghost2"); ("HOY013", a);
         ("HOY012", "ghost3"); ("HOY012", "no-such-device");
         ("HOY013", vendor_a);
       ])
    (plan_findings input plan)

(* a block for a device the plan adds is applied to its fresh config,
   so its parse errors are reported *)
let test_plan_checks_added_device () =
  let g = Lazy.force small in
  let input = Lint.make ~topo:g.G.model.Model.topo g.G.model.Model.configs in
  let plan =
    Cp.make "add"
      ~topo_ops:[ Cp.Add_device new_x ]
      ~commands:[ ("new-x", "frobnicate 42 unknown keyword\n") ]
  in
  Alcotest.check findings "parse error on the added device"
    [ ("HOY014", "new-x") ]
    (plan_findings input plan)

(* a device the plan removes is no longer linted *)
let test_plan_checks_removed_device () =
  let inj = Defects.inject (Lazy.force small) "undefined-prefix-list" in
  let dev = Option.get inj.Defects.inj_device in
  let hoy001 = plan_findings ~codes:[ "HOY001" ] inj.Defects.inj_input in
  Alcotest.check findings "the defect fires while the device stays"
    [ ("HOY001", dev) ]
    (hoy001 (Cp.make "keep"));
  Alcotest.check findings "removing the device removes its finding" []
    (hoy001 (Cp.make "rm" ~topo_ops:[ Cp.Remove_device dev ]))

(* --- catalog sanity ------------------------------------------------ *)

let test_catalog () =
  let codes = List.map (fun (c, _, _, _) -> c) D.catalog in
  Alcotest.(check int) "codes are unique"
    (List.length codes)
    (List.length (List.sort_uniq String.compare codes));
  Alcotest.(check bool) "at least the issue's 10 checks" true
    (List.length codes >= 10);
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Printf.sprintf "class %s is cataloged" cls)
        true
        (D.code_of_check cls <> None))
    Defects.classes

let test_json () =
  let d =
    D.make ~code:"HOY001" ~device:"r1" ~obj:"route-policy P node 10" ~line:4
      "match references undefined prefix list %s" "\"X\""
  in
  let json = D.list_to_json [ d ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON contains %s" needle)
        true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re json 0);
           true
         with Not_found -> false))
    [
      "\"code\": \"HOY001\""; "\"severity\": \"error\"";
      "\"device\": \"r1\""; "\"line\": 4"; "\\\"X\\\"";
      "\"counts\"";
    ]

let suite =
  [
    Alcotest.test_case "clean corpus has zero findings" `Quick
      test_clean_corpus;
    Alcotest.test_case "every injected class fires its code" `Quick
      test_injections;
    Alcotest.test_case "config-level findings carry line numbers" `Quick
      test_injection_lines;
    Alcotest.test_case "prefix-entry containment" `Quick test_entry_covers;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1628 |])
      prop_entry_covers_exact;
    Alcotest.test_case "shadowed prefix entries" `Quick test_shadowed_entries;
    Alcotest.test_case "RCL type/regex/reachability checks" `Quick
      test_rcl_checks;
    Alcotest.test_case "pre-simulation gate modes" `Quick test_gate;
    Alcotest.test_case "plan checks: topology ops and blocks" `Quick
      test_plan_checks_topology;
    Alcotest.test_case "plan checks: block for an added device" `Quick
      test_plan_checks_added_device;
    Alcotest.test_case "plan checks: a removed device is not linted" `Quick
      test_plan_checks_removed_device;
    Alcotest.test_case "catalog integrity" `Quick test_catalog;
    Alcotest.test_case "JSON rendering" `Quick test_json;
  ]
