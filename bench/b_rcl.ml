(* RCL experiments: the Figure 6/7 executable doc-test and Figure 8 (the
   50-specification corpus: specification-size CDF and verification-time
   CDF over the full WAN RIBs). *)

open B_common
open Hoyan_net
module G = Hoyan_workload.Generator
module Route_sim = Hoyan_sim.Route_sim
module Rcl_parser = Hoyan_rcl.Parser
module Rcl_ast = Hoyan_rcl.Ast
module Rcl_verify = Hoyan_rcl.Verify

(* ------------------------------------------------------------------ *)

let figure6_7 () =
  header "Figures 6-7: the RCL running example, executed";
  let ip = Ip.of_string_exn and pfx = Prefix.of_string_exn in
  let comm = Community.of_string_exn in
  let route ~device ~vrf ~prefix ~communities ~lp ~nexthop =
    Route.make ~device ~vrf ~prefix:(pfx prefix)
      ~communities:(Community.Set.of_list (List.map comm communities))
      ~local_pref:lp ~nexthop:(ip nexthop) ()
  in
  let base =
    Rib.of_routes [
      route ~device:"A" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:100 ~nexthop:"2.0.0.1";
      route ~device:"A" ~vrf:"vrf1" ~prefix:"20.0.0.0/24"
        ~communities:[ "100:1"; "200:1" ] ~lp:10 ~nexthop:"3.0.0.1";
      route ~device:"B" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:200 ~nexthop:"4.0.0.1";
    ]
  in
  let updated =
    Rib.of_routes @@ List.map
      (fun (r : Route.t) ->
        if Prefix.equal r.Route.prefix (pfx "10.0.0.0/24") then
          Route.with_local_pref r 300
        else r)
      (Rib.to_list base)
  in
  List.iter
    (fun spec ->
      let verdict =
        match Rcl_verify.check_spec spec ~base ~updated with
        | Ok Rcl_verify.Satisfied -> "SATISFIED"
        | Ok (Rcl_verify.Violated _) -> "VIOLATED"
        | Error e -> "parse error: " ^ e
      in
      row "%-62s -> %s" spec verdict)
    [
      "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}";
      "prefix != 10.0.0.0/24 => PRE = POST";
      "prefix = 10.0.0.0/24 => PRE = POST";
    ]

(* ------------------------------------------------------------------ *)
(* Figure 8: the 50-spec corpus                                         *)
(* ------------------------------------------------------------------ *)

(** Generate a corpus of [n] route-change-intent specifications in the
    shapes of the paper's §4.3 use cases, over the given RIB's devices
    and prefixes. *)
let spec_corpus ?(n = 50) ~(seed : int) (rib : Rib.t) : string list =
  let st = Random.State.make [| seed |] in
  let rib = Rib.to_list rib in
  let devices =
    List.map (fun (r : Route.t) -> r.Route.device) rib
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let prefixes =
    List.map (fun (r : Route.t) -> r.Route.prefix) rib
    |> List.sort_uniq Prefix.compare |> Array.of_list
  in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let pick_devs k =
    List.init k (fun _ -> pick devices) |> List.sort_uniq String.compare
  in
  let pick_pfxs k =
    List.init k (fun _ -> Prefix.to_string (pick prefixes))
    |> List.sort_uniq String.compare
  in
  let dev_set k = "{" ^ String.concat ", " (pick_devs k) ^ "}" in
  let pfx_set k = "{" ^ String.concat ", " (pick_pfxs k) ^ "}" in
  let shapes =
    [|
      (fun () ->
        (* no-change for selected devices and prefixes *)
        Printf.sprintf
          "forall device in %s : forall prefix in %s : routeType = BEST => \
           PRE |> distVals(nexthop) = POST |> distVals(nexthop)"
          (dev_set (1 + Random.State.int st 3))
          (pfx_set (1 + Random.State.int st 3)));
      (fun () ->
        (* attribute target on the updated RIB *)
        Printf.sprintf "prefix = %s => POST |> distVals(localPref) = {%d}"
          (Prefix.to_string (pick prefixes))
          (List.nth [ 100; 150; 200 ] (Random.State.int st 3)));
      (fun () ->
        (* a community must be absent from a region *)
        Printf.sprintf
          "forall device in %s : POST||(communities has 64512:%d) |> count() \
           = 0"
          (dev_set (1 + Random.State.int st 2))
          (300 + Random.State.int st 10));
      (fun () ->
        (* conditional change *)
        Printf.sprintf
          "forall device in %s : forall prefix : (PRE |> distVals(nexthop) = \
           {%s}) imply (POST |> distVals(nexthop) = {%s})"
          (dev_set 1)
          (Ip.to_string (Ip.v4_of_octets 10 255 (64 + Random.State.int st 6) 1))
          (Ip.to_string (Ip.v4_of_octets 10 255 (64 + Random.State.int st 6) 2)));
      (fun () ->
        (* count preservation per device *)
        Printf.sprintf "device = %s => PRE |> count() = POST |> count()"
          (pick devices));
      (fun () ->
        (* bounded ECMP degree for selected prefixes *)
        Printf.sprintf
          "forall prefix in %s : POST |> distCnt(nexthop) <= %d"
          (pfx_set (1 + Random.State.int st 4))
          (2 + Random.State.int st 3));
      (fun () ->
        (* whole-RIB no-change with an exclusion guard *)
        Printf.sprintf "not (prefix in %s) => PRE = POST" (pfx_set 2));
    |]
  in
  List.init n (fun _ -> (pick shapes) ())

let figure8 () =
  header "Figure 8: RCL specification sizes and verification time (50 specs)";
  let g = Lazy.force wan in
  let base = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
  (* the "updated" RIB: one border's routes get a different local-pref,
     so the no-change specs are exercised on both outcomes *)
  let changed_dev = List.hd g.G.borders in
  let updated =
    Rib.of_routes @@ List.map
      (fun (r : Route.t) ->
        if String.equal r.Route.device changed_dev && r.Route.proto = Route.Bgp
        then Route.with_local_pref r (Route.local_pref r + 5)
        else r)
      (Rib.to_list base)
  in
  let corpus = spec_corpus ~seed:7 base in
  let sizes = ref [] and times = ref [] in
  let satisfied = ref 0 and violated = ref 0 in
  List.iter
    (fun spec ->
      match Rcl_parser.parse spec with
      | Error e -> row "corpus spec failed to parse (%s): %s" e spec
      | Ok ast ->
          sizes := float_of_int (Rcl_ast.size ast) :: !sizes;
          let outcome, dt =
            time (fun () -> Rcl_verify.check ast ~base ~updated)
          in
          (match outcome with
          | Rcl_verify.Satisfied -> incr satisfied
          | Rcl_verify.Violated _ -> incr violated);
          times := dt :: !times)
    corpus;
  print_cdf "specification size (internal syntax-tree nodes)" !sizes ~unit:"nodes";
  let under_15 =
    List.length (List.filter (fun s -> s < 15.) !sizes) * 100
    / List.length !sizes
  in
  row "%d%% of specifications smaller than 15 (paper: >90%%)" under_15;
  print_cdf "verification time over the full WAN RIBs" !times ~unit:"s";
  row "verdicts: %d satisfied, %d violated" !satisfied !violated;
  row
    "(paper: >80%% verified within 1 minute on the production WAN; our RIBs \
     are ~1/10 scale)"
