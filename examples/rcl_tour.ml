(* A tour of RCL, the route change intent specification language (§4).

   Evaluates the paper's running example (Figure 6's RIBs and the §4.1
   intents) plus the three §4.3 use cases, printing each specification,
   its syntax-tree size and verdict, with counterexamples on violation.

   Run with:  dune exec examples/rcl_tour.exe *)

open Hoyan_net
open Hoyan_rcl

let pfx = Prefix.of_string_exn
let ip = Ip.of_string_exn
let comm = Community.of_string_exn

let route ~device ~vrf ~prefix ~communities ~lp ~nexthop =
  Route.make ~device ~vrf ~prefix:(pfx prefix)
    ~communities:(Community.Set.of_list (List.map comm communities))
    ~local_pref:lp ~nexthop:(ip nexthop) ()

(* Figure 6, verbatim. *)
let base =
  Rib.of_routes
    [
      route ~device:"A" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:100 ~nexthop:"2.0.0.1";
      route ~device:"A" ~vrf:"vrf1" ~prefix:"20.0.0.0/24"
        ~communities:[ "100:1"; "200:1" ] ~lp:10 ~nexthop:"3.0.0.1";
      route ~device:"B" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:200 ~nexthop:"4.0.0.1";
    ]

let updated =
  Rib.of_routes
    [
      route ~device:"A" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:300 ~nexthop:"2.0.0.1";
      route ~device:"A" ~vrf:"vrf1" ~prefix:"20.0.0.0/24"
        ~communities:[ "100:1"; "200:1" ] ~lp:10 ~nexthop:"3.0.0.1";
      route ~device:"B" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:300 ~nexthop:"4.0.0.1";
    ]

let specs =
  [
    ("the §4.1 intent (a): target routes get localPref 300",
     "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}");
    ("the §4.1 intent (b): everything else unchanged",
     "prefix != 10.0.0.0/24 => PRE = POST");
    ("use case: next hops unchanged for selected devices/prefixes",
     "forall device in {A, B} : forall prefix in {10.0.0.0/24} : routeType = \
      BEST => PRE |> distVals(nexthop) = POST |> distVals(nexthop)");
    ("use case: a community blocked from a region (expected to FAIL here)",
     "forall device in {B} : POST||(communities has 100:1) |> count() = 0");
    ("use case: conditional change (imply)",
     "forall device in {A} : forall prefix : (PRE |> distVals(nexthop) = \
      {2.0.0.1}) imply (POST |> distVals(nexthop) = {2.0.0.1})");
    ("aggregate arithmetic",
     "POST |> count() - PRE |> count() = 0");
  ]

let () =
  List.iter
    (fun (title, spec) ->
      Printf.printf "--- %s\n    %s\n" title spec;
      match Parser.parse spec with
      | Error msg -> Printf.printf "    parse error: %s\n\n" msg
      | Ok ast -> (
          Printf.printf "    size: %d internal nodes\n" (Ast.size ast);
          match Verify.check ast ~base ~updated with
          | Verify.Satisfied -> Printf.printf "    SATISFIED\n\n"
          | Verify.Violated vs ->
              Printf.printf "    VIOLATED:\n";
              List.iter
                (fun v ->
                  Printf.printf "      %s\n" (Verify.violation_to_string v))
                vs;
              print_newline ()))
    specs
