(* Tests for the RCL specification language: lexer, parser, semantics
   (checked against the paper's Figure 6 example RIBs and the §4.1/§4.3
   specifications), verifier counterexamples, and properties. *)

open Hoyan_net
open Hoyan_rcl


(* fixed seed: the property suites are deterministic run to run *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |]) t

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let pfx = Prefix.of_string_exn
let ip = Ip.of_string_exn
let comm s = Community.of_string_exn s

let route ~device ~vrf ~prefix ~communities ~lp ~nexthop =
  Route.make ~device ~vrf ~prefix:(pfx prefix)
    ~communities:(Community.Set.of_list (List.map comm communities))
    ~local_pref:lp ~nexthop:(ip nexthop) ()

(* The exact global RIBs of Figure 6. *)
let base_rib =
  Rib.of_routes
    [
      route ~device:"A" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:100 ~nexthop:"2.0.0.1";
      route ~device:"A" ~vrf:"vrf1" ~prefix:"20.0.0.0/24"
        ~communities:[ "100:1"; "200:1" ] ~lp:10 ~nexthop:"3.0.0.1";
      route ~device:"B" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:200 ~nexthop:"4.0.0.1";
    ]

let updated_rib =
  Rib.of_routes
    [
      route ~device:"A" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:300 ~nexthop:"2.0.0.1";
      route ~device:"A" ~vrf:"vrf1" ~prefix:"20.0.0.0/24"
        ~communities:[ "100:1"; "200:1" ] ~lp:10 ~nexthop:"3.0.0.1";
      route ~device:"B" ~vrf:"global" ~prefix:"10.0.0.0/24"
        ~communities:[ "100:1" ] ~lp:300 ~nexthop:"4.0.0.1";
    ]

let holds spec =
  match Verify.check_spec spec ~base:base_rib ~updated:updated_rib with
  | Ok Verify.Satisfied -> true
  | Ok (Verify.Violated _) -> false
  | Error msg -> Alcotest.failf "parse error: %s" msg

(* --- the paper's running example (§4.1) ---------------------------------- *)

let test_paper_intent_a () =
  (* routes with prefix 10.0.0.0/24 have local preference 300 after *)
  check tbool "intent (a) holds" true
    (holds "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}")

let test_paper_intent_b () =
  (* routes with other prefixes remain unchanged *)
  check tbool "intent (b) holds" true
    (holds "prefix != 10.0.0.0/24 => PRE = POST");
  (* and the complement fails: the 10/24 scope did change *)
  check tbool "changed scope differs" false
    (holds "prefix = 10.0.0.0/24 => PRE = POST")

let test_paper_symbols () =
  (* the UTF-8 spellings from the paper parse identically *)
  check tbool "unicode arrows" true
    (holds
       "prefix = 10.0.0.0/24 \xe2\x87\x92 POST \xe2\x96\xb7 distVals(localPref) = {300}");
  check tbool "unicode neq" true
    (holds "prefix \xe2\x89\xa0 10.0.0.0/24 \xe2\x87\x92 PRE = POST")

(* --- §4.3 use-case shapes -------------------------------------------------- *)

let test_usecase_unchanged_nexthops () =
  let spec =
    {|forall device in {A, B}: forall prefix in {10.0.0.0/24}:
        routeType = BEST => PRE |> distVals(nexthop) = POST |> distVals(nexthop)|}
  in
  check tbool "next hops unchanged" true (holds spec)

let test_usecase_block_community () =
  (* no route with community 100:1 on device B after the change: false
     here (B does carry it) *)
  let spec =
    "forall device in {B}: POST||(communities has 100:1) |> count() = 0"
  in
  check tbool "community still present" false (holds spec);
  let spec_ok =
    "forall device in {B}: POST||(communities has 666:1) |> count() = 0"
  in
  check tbool "absent community passes" true (holds spec_ok)

let test_usecase_conditional_change () =
  (* for every prefix: if its old next hops were {2.0.0.1} then its new
     next hops must be {2.0.0.1} (unchanged here) *)
  let spec =
    {|forall device in {A}: forall prefix:
        (PRE |> distVals(nexthop) = {2.0.0.1}) imply
        (POST |> distVals(nexthop) = {2.0.0.1})|}
  in
  check tbool "conditional holds" true (holds spec);
  let spec_fail =
    {|forall device in {A}: forall prefix:
        (PRE |> distVals(nexthop) = {2.0.0.1}) imply
        (POST |> distVals(nexthop) = {9.9.9.9})|}
  in
  check tbool "conditional fails" false (holds spec_fail)

(* --- aggregates / arithmetic ------------------------------------------------ *)

let test_aggregates () =
  check tbool "count" true (holds "POST |> count() = 3");
  check tbool "distCnt devices" true (holds "POST |> distCnt(device) = 2");
  check tbool "distVals vrf" true
    (holds "POST |> distVals(vrf) = {global, vrf1}");
  check tbool "filtered count" true
    (holds "POST||(vrf = vrf1) |> count() = 1");
  check tbool "arith" true
    (holds "POST |> count() - PRE |> count() = 0");
  check tbool "division" true (holds "POST |> count() / PRE |> count() = 1")

let test_predicates () =
  check tbool "contains" true
    (holds "communities contains 200:1 => POST |> count() = 1");
  check tbool "in set" true
    (holds "device in {A} => POST |> count() = 2");
  check tbool "matches" true
    (holds "device matches \"A|B\" => POST |> count() = 3");
  check tbool "and/or" true
    (holds "device = A and vrf = vrf1 => POST |> count() = 1");
  check tbool "not" true
    (holds "not (device = A) => POST |> count() = 1");
  check tbool "numeric compare" true
    (holds "localPref >= 300 => PRE |> count() = 0")

let test_forall_in_empty_groups () =
  (* a listed group value absent from both RIBs still evaluates the
     sub-intent (on empty groups) — the prefix-reclamation idiom *)
  check tbool "absent prefix counts zero" true
    (holds "forall prefix in {9.9.9.0/24} : POST |> count() = 0");
  check tbool "absent prefix equality holds vacuously" true
    (holds "forall prefix in {9.9.9.0/24} : PRE = POST")

let test_forall_grouping () =
  (* each prefix has exactly 1 distinct next hop per device... across
     devices 10/24 has two nexthops *)
  check tbool "forall prefix grouped" true
    (holds "forall prefix : POST |> distCnt(nexthop) <= 2");
  check tbool "forall prefix exact" false
    (holds "forall prefix : POST |> distCnt(nexthop) = 1");
  check tbool "forall device+prefix" true
    (holds "forall device : forall prefix : POST |> distCnt(nexthop) = 1")

let test_rib_comparison () =
  check tbool "PRE != POST overall" true (holds "PRE != POST");
  check tbool "filtered equality" true
    (holds "PRE||(vrf = vrf1) = POST||(vrf = vrf1)")

(* --- parser details ----------------------------------------------------------- *)

let test_parse_errors () =
  let bad spec =
    match Parser.parse spec with Ok _ -> false | Error _ -> true
  in
  check tbool "unknown field" true (bad "frobnitz = 3 => PRE = POST");
  check tbool "dangling arrow" true (bad "prefix = 1.0.0.0/8 =>");
  check tbool "unbalanced braces" true (bad "POST |> distVals(nexthop) = {300");
  check tbool "trailing junk" true (bad "PRE = POST POST");
  check tbool "empty" true (bad "")

let test_pretty_roundtrip () =
  let specs =
    [
      "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}";
      "forall device in {R1, R2} : forall prefix : (PRE |> distVals(nexthop) \
       = {1.2.3.4}) imply (POST |> distVals(nexthop) = {10.2.3.4})";
      "PRE||(communities contains 100:1) != POST";
      "POST |> count() - PRE |> count() <= 5";
      "not (device = A) => PRE = POST";
    ]
  in
  List.iter
    (fun spec ->
      let ast = Parser.parse_exn spec in
      let printed = Pretty.intent ast in
      let ast2 = Parser.parse_exn printed in
      check tstr
        (Printf.sprintf "roundtrip: %s" spec)
        (Pretty.intent ast) (Pretty.intent ast2))
    specs

let test_spec_size () =
  (* size = number of internal nodes; the paper's running example:
     guard(1) + predicate(1) + comparison(1) + apply(1) + aggregate(1) = 5 *)
  let ast =
    Parser.parse_exn "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}"
  in
  check tint "size of the paper example" 5 (Ast.size ast);
  let bigger =
    Parser.parse_exn
      "forall device in {R1, R2} : routeType = BEST => PRE |> \
       distVals(nexthop) = POST |> distVals(nexthop)"
  in
  check tbool "bigger spec bigger size" true (Ast.size bigger > 5)

(* --- counterexamples ------------------------------------------------------------ *)

let test_counterexamples () =
  match
    Verify.check_spec "forall prefix : PRE = POST" ~base:base_rib
      ~updated:updated_rib
  with
  | Ok (Verify.Violated vs) ->
      check tbool "at least one violation" true (List.length vs >= 1);
      let v = List.hd vs in
      (* the offending group is prefix=10.0.0.0/24 *)
      check tbool "path names the group" true
        (List.exists
           (fun s -> s = "forall prefix=10.0.0.0/24")
           v.Verify.v_path);
      check tbool "concrete routes attached" true (v.Verify.v_routes <> []);
      (* all counterexample routes concern the failing prefix *)
      List.iter
        (fun (r : Route.t) ->
          check tstr "route prefix" "10.0.0.0/24"
            (Prefix.to_string r.Route.prefix))
        v.Verify.v_routes
  | Ok Verify.Satisfied -> Alcotest.fail "expected a violation"
  | Error msg -> Alcotest.failf "parse: %s" msg

let test_counterexample_eval () =
  match
    Verify.check_spec "POST |> count() = 99" ~base:base_rib ~updated:updated_rib
  with
  | Ok (Verify.Violated [ v ]) ->
      check tbool "reason shows values" true
        (try
           ignore (Str.search_forward (Str.regexp_string "3 = 99") v.Verify.v_reason 0);
           true
         with Not_found -> false)
  | _ -> Alcotest.fail "expected exactly one violation"

(* --- properties -------------------------------------------------------------------- *)

(* Random small intents over a fixed schema; checks parser/pretty fixpoint
   and that evaluation is total. *)
let gen_intent : Ast.intent QCheck.Gen.t =
  let open QCheck.Gen in
  let field = oneofl [ "device"; "prefix"; "localPref"; "vrf" ] in
  let value =
    oneof
      [
        map (fun n -> Value.of_int (n mod 500)) nat;
        oneofl [ Value.str "A"; Value.str "B"; Value.str "10.0.0.0/24" ];
      ]
  in
  let pred =
    oneof
      [
        map2 (fun f v -> Ast.P_cmp (f, Ast.Eq, v)) field value;
        map2 (fun f v -> Ast.P_cmp (f, Ast.Ne, v)) field value;
        map (fun f -> Ast.P_in (f, [ Value.str "A"; Value.str "B" ])) field;
      ]
  in
  let transform =
    oneof
      [
        return Ast.T_pre;
        return Ast.T_post;
        map2 (fun b p -> Ast.T_filter ((if b then Ast.T_pre else Ast.T_post), p)) bool pred;
      ]
  in
  let agg =
    oneof
      [ return Ast.Count; map (fun f -> Ast.Dist_cnt f) field;
        map (fun f -> Ast.Dist_vals f) field ]
  in
  let eval_g =
    oneof
      [
        map (fun n -> Ast.E_val (Value.of_int (n mod 10))) nat;
        map2 (fun r f -> Ast.E_agg (r, f)) transform agg;
      ]
  in
  let base_intent =
    oneof
      [
        map2 (fun r1 r2 -> Ast.G_rib_cmp (r1, true, r2)) transform transform;
        map3 (fun e1 e2 b -> Ast.G_eval_cmp (e1, (if b then Ast.Eq else Ast.Le), e2)) eval_g eval_g bool;
      ]
  in
  oneof
    [
      base_intent;
      map2 (fun p g -> Ast.G_guard (p, g)) pred base_intent;
      map2 (fun f g -> Ast.G_forall (f, g)) field base_intent;
      map2 (fun a b -> Ast.G_and (a, b)) base_intent base_intent;
      map (fun g -> Ast.G_not g) base_intent;
    ]

let prop_pretty_parse_fixpoint =
  QCheck.Test.make ~name:"pretty |> parse is a fixpoint" ~count:300
    (QCheck.make gen_intent)
    (fun g ->
      let s = Pretty.intent g in
      match Parser.parse s with
      | Ok g2 -> String.equal (Pretty.intent g2) s
      | Error _ -> false)

let prop_eval_total_and_stable =
  QCheck.Test.make ~name:"evaluation total; double negation stable" ~count:300
    (QCheck.make gen_intent)
    (fun g ->
      let v = Semantics.eval_intent g ~pre:base_rib ~post:updated_rib in
      let nn =
        Semantics.eval_intent (Ast.G_not (Ast.G_not g)) ~pre:base_rib
          ~post:updated_rib
      in
      v = nn)

let prop_violations_iff_false =
  QCheck.Test.make ~name:"verifier finds violations iff intent false"
    ~count:300 (QCheck.make gen_intent)
    (fun g ->
      let sat = Semantics.eval_intent g ~pre:base_rib ~post:updated_rib in
      match Verify.check g ~base:base_rib ~updated:updated_rib with
      | Verify.Satisfied -> sat
      | Verify.Violated _ -> not sat)

let test_ipv6_specs () =
  (* IPv6 prefixes lex as single atoms and canonicalize *)
  let v6route =
    Route.make ~device:"C" ~prefix:(pfx "2001:db8:1::/48") ~local_pref:300 ()
  in
  let base = Rib.union [ Rib.of_routes [ v6route ]; base_rib ]
  and updated = Rib.union [ Rib.of_routes [ v6route ]; updated_rib ] in
  let ok spec =
    match Verify.check_spec spec ~base ~updated with
    | Ok Verify.Satisfied -> true
    | Ok (Verify.Violated _) -> false
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  check tbool "v6 prefix literal" true
    (ok "prefix = 2001:db8:1::/48 => POST |> distVals(localPref) = {300}");
  check tbool "v6 in forall-in set" true
    (ok "forall prefix in {2001:db8:1::/48} : POST |> count() = 1");
  check tbool "family field" true
    (ok "family = ipv6 => POST |> distVals(device) = {C}")

let test_forall_set_valued_field () =
  (* forall over communities groups by the *set* value *)
  check tbool "forall communities" true
    (holds "forall communities : POST |> count() >= 1");
  (* two distinct community sets exist in the Figure-6 RIBs *)
  check tbool "two groups" true
    (holds
       "forall communities : POST |> distCnt(communities) = 1 and POST |> \
        count() <= 2")

let test_deep_nesting () =
  check tbool "nested booleans" true
    (holds
       "(PRE != POST and POST |> count() = 3) or not (device = A => PRE = \
        POST)");
  check tbool "guard inside forall inside guard" true
    (holds
       "vrf = global => forall device : routeType = BEST => POST |> \
        distCnt(prefix) = 1")

let suite =
  [
    ("paper intent (a)", `Quick, test_paper_intent_a);
    ("paper intent (b)", `Quick, test_paper_intent_b);
    ("paper unicode symbols", `Quick, test_paper_symbols);
    ("use case: unchanged next hops", `Quick, test_usecase_unchanged_nexthops);
    ("use case: blocked community", `Quick, test_usecase_block_community);
    ("use case: conditional change", `Quick, test_usecase_conditional_change);
    ("aggregates and arithmetic", `Quick, test_aggregates);
    ("predicates", `Quick, test_predicates);
    ("forall grouping", `Quick, test_forall_grouping);
    ("forall-in with empty groups", `Quick, test_forall_in_empty_groups);
    ("rib comparison", `Quick, test_rib_comparison);
    ("parse errors", `Quick, test_parse_errors);
    ("pretty roundtrip", `Quick, test_pretty_roundtrip);
    ("spec size metric", `Quick, test_spec_size);
    ("counterexamples: forall groups", `Quick, test_counterexamples);
    ("counterexamples: eval values", `Quick, test_counterexample_eval);
    ("IPv6 literals in specs", `Quick, test_ipv6_specs);
    ("forall over a set-valued field", `Quick, test_forall_set_valued_field);
    ("deeply nested intents", `Quick, test_deep_nesting);
    qtest prop_pretty_parse_fixpoint;
    qtest prop_eval_total_and_stable;
    qtest prop_violations_iff_false;
  ]
