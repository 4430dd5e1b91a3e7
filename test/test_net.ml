(* Unit and property tests for the hoyan.net substrate. *)

open Hoyan_net


(* fixed seed: the property suites are deterministic run to run *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |]) t

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- Int128 ------------------------------------------------------------ *)

let test_int128_basic () =
  let open Int128 in
  check tbool "zero = zero" true (equal zero zero);
  check tint "compare 0 1" (-1) (compare zero one);
  check tbool "succ zero = one" true (equal (succ zero) one);
  check tbool "pred one = zero" true (equal (pred one) zero);
  check tbool "max+1 saturates in Ip, wraps here" true
    (equal (add max_value one) zero);
  check tbool "shift round trip" true
    (equal (shift_right_logical (shift_left one 100) 100) one);
  check tbool "bit 100 set" true (test_bit (shift_left one 100) 100);
  check tbool "bit 99 clear" false (test_bit (shift_left one 100) 99);
  check tbool "mask 128 = all ones" true (equal (mask 128) max_value);
  check tbool "mask 0 = zero" true (equal (mask 0) zero)

let test_int128_arith () =
  let open Int128 in
  (* carry across the 64-bit boundary *)
  let lo_max = make ~hi:0L ~lo:(-1L) in
  let r = add lo_max one in
  check tbool "carry" true (equal r (make ~hi:1L ~lo:0L));
  let r2 = sub (make ~hi:1L ~lo:0L) one in
  check tbool "borrow" true (equal r2 lo_max)

(* --- Ip ----------------------------------------------------------------- *)

let test_ipv4_parse () =
  let ip = Ip.of_string_exn "10.1.2.3" in
  check tstr "roundtrip" "10.1.2.3" (Ip.to_string ip);
  check tbool "bad octet" true (Ip.of_string "10.1.2.256" = None);
  check tbool "bad format" true (Ip.of_string "10.1.2" = None);
  check tbool "succ" true
    (Ip.equal (Ip.succ (Ip.of_string_exn "10.0.0.255")) (Ip.of_string_exn "10.0.1.0"))

let test_ipv6_parse () =
  let cases =
    [
      ("2001:db8::1", "2001:db8::1");
      ("::", "::");
      ("::1", "::1");
      ("2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1");
      ("fe80::1:2:3:4", "fe80::1:2:3:4");
      ("1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8");
    ]
  in
  List.iter
    (fun (input, expected) ->
      match Ip.of_string input with
      | Some ip -> check tstr input expected (Ip.to_string ip)
      | None -> Alcotest.failf "failed to parse %s" input)
    cases;
  check tbool "too many groups" true (Ip.of_string "1:2:3:4:5:6:7:8:9" = None);
  check tbool "double ::" true (Ip.of_string "1::2::3" = None)

let test_ip_ordering () =
  let v4 = Ip.of_string_exn "255.255.255.255" in
  let v6 = Ip.of_string_exn "::1" in
  check tbool "v4 < v6" true (Ip.compare v4 v6 < 0);
  check tbool "numeric order" true
    (Ip.compare (Ip.of_string_exn "10.0.0.1") (Ip.of_string_exn "10.0.0.2") < 0)

let test_ip_bits () =
  let ip = Ip.of_string_exn "128.0.0.1" in
  check tbool "msb set" true (Ip.bit ip 0);
  check tbool "lsb set" true (Ip.bit ip 31);
  check tbool "middle clear" false (Ip.bit ip 15);
  let ip6 = Ip.of_string_exn "8000::1" in
  check tbool "v6 msb" true (Ip.bit ip6 0);
  check tbool "v6 lsb" true (Ip.bit ip6 127)

(* --- Prefix ------------------------------------------------------------- *)

let test_prefix_basic () =
  let p = Prefix.of_string_exn "10.0.0.0/24" in
  check tstr "to_string" "10.0.0.0/24" (Prefix.to_string p);
  check tbool "normalizes host bits" true
    (Prefix.equal p (Prefix.of_string_exn "10.0.0.99/24"));
  check tbool "mem inside" true (Prefix.mem (Ip.of_string_exn "10.0.0.1") p);
  check tbool "mem outside" false (Prefix.mem (Ip.of_string_exn "10.0.1.1") p);
  check tstr "last addr" "10.0.0.255" (Ip.to_string (Prefix.last_addr p));
  check tbool "default" true
    (Prefix.equal (Prefix.default Ip.Ipv4) (Prefix.of_string_exn "0.0.0.0/0"))

let test_prefix_subsumption () =
  let p8 = Prefix.of_string_exn "10.0.0.0/8" in
  let p24 = Prefix.of_string_exn "10.1.2.0/24" in
  let other = Prefix.of_string_exn "11.0.0.0/8" in
  check tbool "subsumes" true (Prefix.subsumes p8 p24);
  check tbool "not reverse" false (Prefix.subsumes p24 p8);
  check tbool "overlap" true (Prefix.overlap p8 p24);
  check tbool "no overlap" false (Prefix.overlap p24 other);
  check tbool "family mismatch" false
    (Prefix.subsumes p8 (Prefix.of_string_exn "::/0"))

let test_prefix_v6 () =
  let p = Prefix.of_string_exn "2001:db8::/32" in
  check tbool "mem" true (Prefix.mem (Ip.of_string_exn "2001:db8::42") p);
  check tbool "not mem" false (Prefix.mem (Ip.of_string_exn "2001:db9::1") p);
  check tstr "last" "2001:db8:ffff:ffff:ffff:ffff:ffff:ffff"
    (Ip.to_string (Prefix.last_addr p))

let test_prefix_halves () =
  let p = Prefix.of_string_exn "10.0.0.0/24" in
  match Prefix.halves p with
  | Some (lo, hi) ->
      check tstr "lo" "10.0.0.0/25" (Prefix.to_string lo);
      check tstr "hi" "10.0.0.128/25" (Prefix.to_string hi)
  | None -> Alcotest.fail "halves"

(* --- Trie --------------------------------------------------------------- *)

let test_trie_lpm () =
  let t = Trie.empty Ip.Ipv4 in
  let t = Trie.add t (Prefix.of_string_exn "10.0.0.0/8") "eight" in
  let t = Trie.add t (Prefix.of_string_exn "10.1.0.0/16") "sixteen" in
  let t = Trie.add t (Prefix.of_string_exn "0.0.0.0/0") "default" in
  let lookup ip =
    match Trie.longest_match t (Ip.of_string_exn ip) with
    | Some (_, v) -> v
    | None -> "none"
  in
  check tstr "most specific" "sixteen" (lookup "10.1.2.3");
  check tstr "mid" "eight" (lookup "10.2.0.1");
  check tstr "default" "default" (lookup "11.0.0.1");
  check tint "cardinal" 3 (Trie.cardinal t);
  (* all_matches returns most specific first *)
  let ms = Trie.all_matches t (Ip.of_string_exn "10.1.2.3") in
  check tint "three matches" 3 (List.length ms);
  check tstr "first is /16" "sixteen" (snd (List.hd ms))

let test_trie_fold_roundtrip () =
  let prefixes =
    [ "10.0.0.0/8"; "10.1.0.0/16"; "192.168.1.0/24"; "0.0.0.0/0";
      "255.255.255.255/32" ]
  in
  let t =
    List.fold_left
      (fun t p -> Trie.add t (Prefix.of_string_exn p) p)
      (Trie.empty Ip.Ipv4) prefixes
  in
  let collected = Trie.to_list t |> List.map fst |> List.map Prefix.to_string in
  check
    Alcotest.(slist string String.compare)
    "roundtrip" prefixes collected

let test_trie_dual () =
  let t = Trie.Dual.empty in
  let t = Trie.Dual.add t (Prefix.of_string_exn "10.0.0.0/8") "v4" in
  let t = Trie.Dual.add t (Prefix.of_string_exn "2001:db8::/32") "v6" in
  check tbool "v4 lookup" true
    (Trie.Dual.longest_match t (Ip.of_string_exn "10.1.1.1") <> None);
  check tbool "v6 lookup" true
    (Trie.Dual.longest_match t (Ip.of_string_exn "2001:db8::1") <> None);
  check tbool "v6 miss" true
    (Trie.Dual.longest_match t (Ip.of_string_exn "2001:db9::1") = None);
  check tint "cardinal both" 2 (Trie.Dual.cardinal t);
  (* removal prunes: once the last binding goes, the trie is empty *)
  let t = Trie.Dual.remove t (Prefix.of_string_exn "10.0.0.0/8") in
  check tbool "one family left" false (Trie.Dual.is_empty t);
  check tbool "removing an absent prefix changes nothing" true
    (Trie.Dual.to_list (Trie.Dual.remove t (Prefix.of_string_exn "10.0.0.0/24"))
    = Trie.Dual.to_list t);
  let t = Trie.Dual.remove t (Prefix.of_string_exn "2001:db8::/32") in
  check tbool "empty after the last removal" true (Trie.Dual.is_empty t)

(* --- Community / AS path ------------------------------------------------ *)

let test_community () =
  let c = Community.of_string_exn "100:1" in
  check tstr "roundtrip" "100:1" (Community.to_string c);
  check tbool "bad" true (Community.of_string "100" = None);
  let s =
    Community.Set.of_list
      [ Community.of_string_exn "200:2"; c; c ]
  in
  check tint "dedup" 2 (Community.Set.cardinal s);
  check tbool "mem" true (Community.Set.mem c s);
  check tstr "sorted render" "100:1,200:2" (Community.Set.to_string s);
  match Community.Set.of_string "100:1, 200:2" with
  | Some s2 -> check tbool "set parse" true (Community.Set.equal s s2)
  | None -> Alcotest.fail "set parse"

let test_as_path () =
  let p = As_path.of_asns [ 100; 200; 300 ] in
  check tint "length" 3 (As_path.length p);
  check tstr "render" "100 200 300" (As_path.to_string p);
  check tbool "contains" true (As_path.contains_asn 200 p);
  check tbool "not contains" false (As_path.contains_asn 999 p);
  let p2 = As_path.prepend 50 p in
  check tstr "prepend" "50 100 200 300" (As_path.to_string p2);
  check tint "set counts 1" 2
    (As_path.length
       (As_path.of_segments [ As_path.Seq [ 1 ]; As_path.Set [ 2; 3; 4 ] ]));
  (* roundtrip with a set segment *)
  let str =
    As_path.to_string
      (As_path.of_segments [ As_path.Seq [ 1; 2 ]; As_path.Set [ 3; 4 ] ])
  in
  (match As_path.of_string str with
  | Some p' -> check tstr "roundtrip" str (As_path.to_string p')
  | None -> Alcotest.fail "as-path parse");
  (* aggregation *)
  let paths = [ As_path.of_asns [ 1; 2; 3 ]; As_path.of_asns [ 1; 2; 4 ] ] in
  check
    Alcotest.(list int)
    "common prefix" [ 1; 2 ] (As_path.common_prefix paths);
  check tstr "as-set aggregate" "1 2 {3,4}"
    (As_path.to_string (As_path.aggregate_with_set paths))

(* --- Route / Rib -------------------------------------------------------- *)

let mk_route ?(device = "A") ?(prefix = "10.0.0.0/24") ?(lp = 100) () =
  Route.make ~device ~prefix:(Prefix.of_string_exn prefix) ~local_pref:lp ()

let test_route_equal () =
  check tbool "equal" true (Route.equal (mk_route ()) (mk_route ()));
  check tbool "differs" false (Route.equal (mk_route ()) (mk_route ~lp:200 ()));
  check tbool "compare consistent" true
    (Route.compare (mk_route ()) (mk_route ~lp:200 ()) <> 0)

let test_global_rib () =
  let r1 = mk_route () and r2 = mk_route ~device:"B" () in
  let r3 = mk_route ~device:"B" ~lp:200 () in
  let g = Rib.of_routes [ r2; r1; r2 ] in
  check tint "canonical: deduplicated" 2 (List.length (Rib.to_list g));
  check tbool "canonical: sorted" true
    (List.equal Route.equal (Rib.to_list g) [ r1; r2 ]);
  check tbool "set equal, input order independent" true
    (Rib.equal g (Rib.of_routes [ r1; r2 ]));
  check tbool "not equal different" false (Rib.equal g (Rib.of_routes [ r1 ]));
  let d = Rib.diff g (Rib.of_routes [ r1; r3 ]) in
  check tbool "diff" true (List.equal Route.equal (Rib.to_list d) [ r2 ]);
  let u = Rib.union [ Rib.of_routes [ r3 ]; g; Rib.of_routes [ r2 ] ] in
  check tbool "union = of_routes over the concatenation" true
    (Rib.equal u (Rib.of_routes [ r3; r2; r1 ]));
  check tbool "copy: equal rows, fresh records" true
    (let c = Rib.copy u in
     Rib.equal c u
     && List.for_all2 ( != ) (Rib.to_list c) (Rib.to_list u));
  check tbool "filter keeps RIB order" true
    (List.equal Route.equal
       (Rib.to_list (Rib.filter (fun r -> r.Route.device = "B") u))
       [ r2; r3 ]);
  check
    Alcotest.(list (pair string int))
    "group_by: first-appearance order, buckets in RIB order"
    [ ("A", 1); ("B", 2) ]
    (List.map
       (fun (k, (rows : Rib.t)) -> (k, List.length (Rib.to_list rows)))
       (Rib.group_by (fun r -> r.Route.device) u))

(* --- Properties --------------------------------------------------------- *)

let ipv4_gen = QCheck.Gen.(map (fun n -> Ip.V4 (n land 0xffffffff)) nat)

let prefix_gen =
  QCheck.Gen.(
    map2
      (fun ip len -> Prefix.make (Ip.V4 (ip land 0xffffffff)) (len mod 33))
      nat nat)

let prop_prefix_roundtrip =
  QCheck.Test.make ~name:"prefix of_string/to_string roundtrip" ~count:500
    (QCheck.make prefix_gen)
    (fun p ->
      match Prefix.of_string (Prefix.to_string p) with
      | Some p' -> Prefix.equal p p'
      | None -> false)

let prop_prefix_mem_range =
  QCheck.Test.make ~name:"mem <=> within [first,last]" ~count:500
    (QCheck.make QCheck.Gen.(pair prefix_gen ipv4_gen))
    (fun (p, ip) ->
      let inside =
        Ip.compare ip (Prefix.first_addr p) >= 0
        && Ip.compare ip (Prefix.last_addr p) <= 0
      in
      Prefix.mem ip p = inside)

let prop_trie_lpm_vs_linear =
  (* LPM from the trie equals a linear scan for the longest containing
     prefix. *)
  let gen =
    QCheck.Gen.(pair (list_size (int_range 1 30) prefix_gen) ipv4_gen)
  in
  QCheck.Test.make ~name:"trie LPM = linear scan" ~count:300 (QCheck.make gen)
    (fun (prefixes, ip) ->
      let t =
        List.fold_left
          (fun t p -> Trie.add t p (Prefix.to_string p))
          (Trie.empty Ip.Ipv4) prefixes
      in
      let linear =
        List.filter (fun p -> Prefix.mem ip p) prefixes
        |> List.sort (fun a b -> Int.compare (Prefix.len b) (Prefix.len a))
      in
      match (Trie.longest_match t ip, linear) with
      | None, [] -> true
      | Some (p, _), best :: _ -> Prefix.len p = Prefix.len best
      | Some _, [] | None, _ :: _ -> false)

let prop_int128_shift =
  QCheck.Test.make ~name:"int128 shift left/right inverse" ~count:500
    (QCheck.make QCheck.Gen.(pair nat (int_range 0 60)))
    (fun (n, s) ->
      let x = Int128.of_int n in
      let y = Int128.shift_right_logical (Int128.shift_left x s) s in
      Int128.equal x y)

let prop_community_set_sorted =
  let comm_gen =
    QCheck.Gen.(
      map2 (fun a t -> Community.make (a mod 65536) (t mod 65536)) nat nat)
  in
  QCheck.Test.make ~name:"community set: of_list is sorted and unique"
    ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 20) comm_gen))
    (fun cs ->
      let s = Community.Set.to_list (Community.Set.of_list cs) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Community.compare a b < 0 && sorted rest
        | _ -> true
      in
      sorted s)

let suite =
  [
    ("int128 basic", `Quick, test_int128_basic);
    ("int128 arithmetic", `Quick, test_int128_arith);
    ("ipv4 parse", `Quick, test_ipv4_parse);
    ("ipv6 parse", `Quick, test_ipv6_parse);
    ("ip ordering", `Quick, test_ip_ordering);
    ("ip bit access", `Quick, test_ip_bits);
    ("prefix basic", `Quick, test_prefix_basic);
    ("prefix subsumption", `Quick, test_prefix_subsumption);
    ("prefix v6", `Quick, test_prefix_v6);
    ("prefix halves", `Quick, test_prefix_halves);
    ("trie lpm", `Quick, test_trie_lpm);
    ("trie fold roundtrip", `Quick, test_trie_fold_roundtrip);
    ("trie dual family", `Quick, test_trie_dual);
    ("community", `Quick, test_community);
    ("as path", `Quick, test_as_path);
    ("route equality", `Quick, test_route_equal);
    ("global rib", `Quick, test_global_rib);
    qtest prop_prefix_roundtrip;
    qtest prop_prefix_mem_range;
    qtest prop_trie_lpm_vs_linear;
    qtest prop_int128_shift;
    qtest prop_community_set_sorted;
  ]
