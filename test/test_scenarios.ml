(* Integration tests of the scripted paper incidents (Figures 9/10) and
   the end-to-end properties the case studies rely on. *)

open Hoyan_net
module S = Hoyan_workload.Scenarios
module V = Hoyan_core.Verify_request
module Intents = Hoyan_core.Intents
module Cp = Hoyan_config.Change_plan
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let test_fig10a () =
  let sc = S.fig10a () in
  let res = V.run sc.S.sc_base sc.S.sc_request in
  check tbool "the risky change is flagged" false res.V.vr_ok;
  (* the three expected violations, in substance *)
  let has pred = List.exists pred res.V.vr_violations in
  check tbool "route missing on M1" true
    (has (fun v ->
         try
           ignore (Str.search_forward (Str.regexp_string "on M1") v.Intents.v_detail 0);
           true
         with Not_found -> false));
  check tbool "flow still via A" true
    (has (fun (v : Intents.violation) ->
         List.exists
           (fun (p : Traffic_sim.path) ->
             p.Traffic_sim.hops = [ "M1"; "A"; "M2"; "B" ])
           v.Intents.v_paths));
  check tbool "A->M2 overloaded" true
    (has (fun v -> List.exists (fun ((a, b), _) -> a = "A" && b = "M2") v.Intents.v_links))

let test_fig10a_corrected () =
  (* with node 20 pre-installed on M1 too, the same change verifies *)
  let sc = S.fig10a () in
  let fixed_plan =
    Cp.make "fixed"
      ~commands:
        [
          ( "M1",
            "route-map FROM_B permit 20\n match ip prefix-list TARGET\n set \
             local-preference 300\nno route-map FROM_B 10\n" );
          ("M2", "no route-map FROM_B 10\n");
        ]
  in
  let res =
    V.run sc.S.sc_base { sc.S.sc_request with V.rq_plan = fixed_plan }
  in
  check tbool "corrected plan verifies" true res.V.vr_ok

let test_fig10b () =
  let sc = S.fig10b () in
  let res = V.run sc.S.sc_base sc.S.sc_request in
  check tbool "flagged" false res.V.vr_ok;
  (* the stated intent (targets moved to C) passes; the collateral fails *)
  let detail_of pred =
    List.filter (fun (v : Intents.violation) -> pred v) res.V.vr_violations
  in
  check tbool "no violation about the target prefixes' nexthop" true
    (detail_of (fun v ->
         try
           ignore
             (Str.search_forward (Str.regexp_string "2001:db8:1::/48")
                v.Intents.v_intent 0);
           (* the first intent (targets moved) must NOT be violated *)
           try
             ignore
               (Str.search_forward (Str.regexp_string "10.255.1.1")
                  v.Intents.v_intent 0);
             true
           with Not_found -> false
         with Not_found -> false)
    = []);
  check tbool "overload detected" true
    (List.exists
       (fun (v : Intents.violation) -> v.Intents.v_links <> [])
       res.V.vr_violations);
  check tbool "'others do not change' violated" true
    (List.exists
       (fun (v : Intents.violation) ->
         try
           ignore
             (Str.search_forward (Str.regexp_string "2001:db8:8::/48")
                v.Intents.v_intent 0);
           true
         with Not_found -> false)
       res.V.vr_violations)

let test_fig9_models_diverge_only_at_a () =
  let sc = S.fig9 () in
  let live =
    (Route_sim.run sc.S.dg_live_model ~input_routes:sc.S.dg_inputs ()).Route_sim.rib
  in
  let sim =
    (Route_sim.run sc.S.dg_hoyan_model ~input_routes:sc.S.dg_inputs ()).Route_sim.rib
  in
  let diff =
    Rib.to_list (Rib.diff live sim) @ Rib.to_list (Rib.diff sim live)
  in
  check tbool "models diverge" true (diff <> []);
  List.iter
    (fun (r : Route.t) ->
      check Alcotest.string "divergence confined to A" "A" r.Route.device)
    diff;
  (* the live network concentrates the flow on A->Bx; the pre-fix model
     splits it *)
  let load model rib =
    let tr = Traffic_sim.run model ~rib ~flows:[ sc.S.dg_flow ] () in
    Option.value (Hashtbl.find_opt tr.Traffic_sim.link_load sc.S.dg_link) ~default:0.
  in
  let live_load = load sc.S.dg_live_model live in
  let sim_load = load sc.S.dg_hoyan_model sim in
  check tbool "simulated load underestimates" true (sim_load < live_load -. 1.)

let test_intents_subpath () =
  check tbool "subpath found" true
    (Intents.contains_subpath [ "B"; "C" ] [ "A"; "B"; "C"; "D" ]);
  check tbool "subpath must be contiguous" false
    (Intents.contains_subpath [ "A"; "C" ] [ "A"; "B"; "C" ]);
  check tbool "empty subpath" true (Intents.contains_subpath [] [ "A" ]);
  check tbool "full match" true
    (Intents.contains_subpath [ "A"; "B" ] [ "A"; "B" ])

let test_centralized_runner () =
  let g = Hoyan_workload.Generator.generate Hoyan_workload.Generator.small in
  let module C = Hoyan_sim.Centralized in
  (* a huge cap: everything completes *)
  let ok =
    C.run ~chunks:10 ~mem_cap_bytes:max_int g.Hoyan_workload.Generator.model
      ~input_routes:g.Hoyan_workload.Generator.input_routes ()
  in
  check tint "no OOM with a huge cap" 0 ok.C.c_oom_prefixes;
  check (Alcotest.float 0.001) "all completed" 1.0 (C.completed_frac ok);
  (* a tiny cap: everything OOMs *)
  let bad =
    C.run ~chunks:10 ~mem_cap_bytes:1 g.Hoyan_workload.Generator.model
      ~input_routes:g.Hoyan_workload.Generator.input_routes ()
  in
  check tint "nothing completes with a 1-byte cap" 0 bad.C.c_simulated_prefixes;
  check tbool "OOMs reported" true (C.oom_frac bad > 0.99)

let suite =
  [
    ("figure 10a incident", `Quick, test_fig10a);
    ("figure 10a corrected plan", `Quick, test_fig10a_corrected);
    ("figure 10b incident", `Quick, test_fig10b);
    ("figure 9 divergence", `Quick, test_fig9_models_diverge_only_at_a);
    ("flow-path subpath matching", `Quick, test_intents_subpath);
    ("centralized runner memory model", `Slow, test_centralized_runner);
  ]
