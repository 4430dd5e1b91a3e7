(* Properties of the PR6 performance representations: interned AS-path /
   community tables agree with the structural implementations, interned
   ids are deterministic for a fixed build order, packed route
   attributes round-trip, the packed-key arena merge produces exactly
   [List.sort_uniq Route.compare], and dropping rows by prefix id equals
   filtering the route list — each with a complete universe and through
   the overflow path of a partial one. *)

open Hoyan_net

(* fixed seed: deterministic run to run *)
let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |]) t

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_asn = QCheck.Gen.(map (fun n -> 1 + (n mod 20)) nat)

let gen_segment =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> As_path.Seq l) (list_size (int_range 1 4) gen_asn);
        map (fun l -> As_path.Set l) (list_size (int_range 1 4) gen_asn);
      ])

let gen_as_path =
  QCheck.Gen.(
    map As_path.of_segments (list_size (int_range 0 4) gen_segment))

let arb_as_path =
  QCheck.make ~print:As_path.to_string gen_as_path

let gen_community =
  QCheck.Gen.(
    map2 (fun a t -> Community.make (1 + (a mod 10)) (t mod 10)) nat nat)

let gen_comm_set =
  QCheck.Gen.(
    map Community.Set.of_list (list_size (int_range 0 5) gen_community))

let arb_comm_set = QCheck.make ~print:Community.Set.to_string gen_comm_set

let gen_route =
  let open QCheck.Gen in
  let* dev = map (fun n -> Printf.sprintf "d%d" (n mod 4)) nat in
  let* vrf = oneofl [ "global"; "vrf1" ] in
  let* ip = map (fun n -> Ip.V4 ((n * 257) land 0xffffff00)) nat in
  let* len = int_range 8 24 in
  let* lp = map (fun n -> n mod 500) nat in
  let* med = map (fun n -> n mod 100) nat in
  let* weight = map (fun n -> n mod 100) nat in
  let* path = gen_as_path in
  let* comms = gen_comm_set in
  let* nh = opt (map (fun n -> Ip.V4 (1 + (n mod 1000))) nat) in
  return
    (Route.make ~device:dev ~vrf ~prefix:(Prefix.make ip len) ~local_pref:lp
       ~med ~weight ~as_path:path ~communities:comms ?nexthop:nh ())

let arb_routes =
  QCheck.make
    ~print:(fun rs -> string_of_int (List.length rs) ^ " routes")
    QCheck.Gen.(list_size (int_range 0 40) gen_route)

(* ------------------------------------------------------------------ *)
(* Interned tables agree with the structural implementations           *)
(* ------------------------------------------------------------------ *)

let prop_as_paths_agree =
  QCheck.Test.make ~count:300
    ~name:"interned As_path ops agree with structural ops"
    (QCheck.pair arb_as_path (QCheck.pair arb_as_path QCheck.small_nat))
    (fun (p, (q, asn)) ->
      let asn = 1 + (asn mod 25) in
      let tbl = Intern.As_paths.create () in
      let ip = Intern.As_paths.intern tbl p
      and iq = Intern.As_paths.intern tbl q in
      (* id equality is value equality *)
      Intern.As_paths.equal_id ip iq = As_path.equal p q
      && Intern.As_paths.length tbl ip = As_path.length p
      && Intern.As_paths.contains_asn tbl asn ip = As_path.contains_asn asn p
      && Intern.As_paths.to_string tbl ip = As_path.to_string p
      && compare (Intern.As_paths.compare_id tbl ip iq) 0
         = compare (As_path.compare p q) 0
      && As_path.equal
           (Intern.As_paths.get tbl (Intern.As_paths.prepend tbl asn ip))
           (As_path.prepend asn p))

let prop_communities_agree =
  QCheck.Test.make ~count:300
    ~name:"interned Community.Set ops agree with structural ops"
    (QCheck.pair arb_comm_set (QCheck.pair arb_comm_set QCheck.small_nat))
    (fun (a, (b, n)) ->
      let c = Community.make (1 + (n mod 10)) (n mod 10) in
      let tbl = Intern.Communities.create () in
      let ia = Intern.Communities.intern tbl a
      and ib = Intern.Communities.intern tbl b in
      Intern.Communities.equal_id ia ib = Community.Set.equal a b
      && Intern.Communities.mem tbl c ia = Community.Set.mem c a
      && Intern.Communities.cardinal tbl ia = Community.Set.cardinal a
      && Intern.Communities.to_string tbl ia = Community.Set.to_string a
      && compare (Intern.Communities.compare_id tbl ia ib) 0
         = compare (Community.Set.compare a b) 0
      && Community.Set.equal
           (Intern.Communities.get tbl (Intern.Communities.union tbl ia ib))
           (Community.Set.union a b))

let prop_ids_deterministic =
  QCheck.Test.make ~count:100
    ~name:"interned ids are stable for a fixed build order"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 30) gen_as_path))
    (fun paths ->
      let t1 = Intern.As_paths.create () in
      let ids1 = List.map (Intern.As_paths.intern t1) paths in
      let t2 = Intern.As_paths.create () in
      let ids2 = List.map (Intern.As_paths.intern t2) paths in
      ids1 = ids2
      && Intern.As_paths.size t1 = Intern.As_paths.size t2
      (* ids are dense, first-sight ordered *)
      && List.for_all (fun id -> id < Intern.As_paths.size t1) ids1)

let test_freeze_lifecycle () =
  let tbl = Intern.As_paths.create () in
  let p = As_path.of_asns [ 1; 2; 3 ] in
  let id = Intern.As_paths.intern tbl p in
  Intern.As_paths.freeze tbl;
  Alcotest.(check bool) "frozen" true (Intern.As_paths.frozen tbl);
  (* existing values still resolve (memos were materialized) *)
  Alcotest.(check int) "reintern existing" id (Intern.As_paths.intern tbl p);
  Alcotest.(check string)
    "to_string after freeze" (As_path.to_string p)
    (Intern.As_paths.to_string tbl id);
  (* new values are rejected: the table is shared read-only *)
  (match Intern.As_paths.intern tbl (As_path.of_asns [ 9; 9; 9 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "intern of an unseen path after freeze must raise");
  match Intern.As_paths.find_opt tbl (As_path.of_asns [ 9; 9; 9 ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "unseen path must not be present"

(* ------------------------------------------------------------------ *)
(* Packed route attributes                                             *)
(* ------------------------------------------------------------------ *)

let prop_attrs_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"packed Route attrs round-trip within field ranges"
    (QCheck.triple QCheck.small_nat QCheck.small_nat QCheck.small_nat)
    (fun (lp, med, w) ->
      let r =
        Route.make ~device:"d" ~prefix:(Prefix.of_string_exn "10.0.0.0/24")
          ~local_pref:lp ~med ~weight:w ()
      in
      Route.local_pref r = lp
      && Route.med r = med
      && Route.weight r = w
      && Route.local_pref (Route.with_local_pref r (lp + 1)) = lp + 1
      && Route.med (Route.with_med r (med + 1)) = med + 1
      (* setters leave the other packed fields alone *)
      && Route.med (Route.with_local_pref r (lp + 1)) = med
      && Route.weight (Route.with_med r (med + 1)) = w)

let test_attrs_saturate () =
  let r =
    Route.make ~device:"d" ~prefix:(Prefix.of_string_exn "10.0.0.0/24")
      ~local_pref:max_int ~med:(-5) ~weight:max_int ()
  in
  Alcotest.(check int) "lp clamps" Route.Attrs.lp_max (Route.local_pref r);
  Alcotest.(check int) "med clamps at 0" 0 (Route.med r);
  Alcotest.(check int)
    "weight clamps" Route.Attrs.weight_max (Route.weight r)

(* ------------------------------------------------------------------ *)
(* Arena merge = sort_uniq                                             *)
(* ------------------------------------------------------------------ *)

let partition_chunks rs =
  (* deterministic 3-way partition *)
  List.mapi (fun i r -> (i, r)) rs
  |> List.fold_left
       (fun (a, b, c) (i, r) ->
         match i mod 3 with
         | 0 -> (r :: a, b, c)
         | 1 -> (a, r :: b, c)
         | _ -> (a, b, r :: c))
       ([], [], [])
  |> fun (a, b, c) -> [ a; b; c ]

let prop_arena_merge_full_ctx =
  QCheck.Test.make ~count:200
    ~name:"arena merge = sort_uniq (complete key universe)"
    arb_routes
    (fun rs ->
      let ctx = Rib.Key.of_routes rs in
      let chunks = partition_chunks rs in
      (* duplicate one chunk: the merge must deduplicate *)
      let chunks = chunks @ [ List.filteri (fun i _ -> i mod 2 = 0) rs ] in
      let merged =
        Rib.Arena.merge (List.map (Rib.Arena.of_routes ctx) chunks)
      in
      let reference = List.sort_uniq Route.compare (List.concat chunks) in
      List.equal Route.equal merged reference)

let prop_arena_merge_partial_ctx =
  QCheck.Test.make ~count:200
    ~name:"arena merge = sort_uniq (partial universe, overflow path)"
    arb_routes
    (fun rs ->
      (* universe misses half the devices and all vrf1 routes *)
      let known =
        List.filter
          (fun (r : Route.t) ->
            String.equal r.Route.vrf "global"
            && (String.equal r.Route.device "d0"
               || String.equal r.Route.device "d1"))
          rs
      in
      let ctx = Rib.Key.of_routes known in
      let chunks = partition_chunks rs in
      let merged =
        Rib.Arena.merge (List.map (Rib.Arena.of_routes ctx) chunks)
      in
      let reference = List.sort_uniq Route.compare rs in
      List.equal Route.equal merged reference)

(* ------------------------------------------------------------------ *)
(* Arena drop by prefix id = List.filter                               *)
(* ------------------------------------------------------------------ *)

let arena_equal (a : Rib.Arena.t) (b : Rib.Arena.t) =
  a.Rib.Arena.keys = b.Rib.Arena.keys
  && Array.length a.Rib.Arena.rows = Array.length b.Rib.Arena.rows
  && Array.for_all2 Route.equal a.Rib.Arena.rows b.Rib.Arena.rows
  && List.equal Route.equal a.Rib.Arena.overflow b.Rib.Arena.overflow

(* Drop a seeded subset of the routes' prefixes (plus one prefix that may
   lie outside the universe) and compare against the list reference:
   same arena as keying the surviving routes, and [on_drop] sees the
   device of exactly the dropped (deduplicated) rows. *)
let drop_matches_filter ~(universe : Route.t list -> Route.t list)
    (rs, seed) =
  let ctx = Rib.Key.of_routes (universe rs) in
  let prefixes =
    List.sort_uniq Prefix.compare
      (List.map (fun (r : Route.t) -> r.Route.prefix) rs)
  in
  let dirty_tbl = Prefix.Tbl.create 16 in
  List.iteri
    (fun i p -> if (i + seed) mod 3 = 0 then Prefix.Tbl.replace dirty_tbl p ())
    prefixes;
  Prefix.Tbl.replace dirty_tbl (Prefix.of_string_exn "192.0.2.0/24") ();
  let dirty = Prefix.Tbl.mem dirty_tbl in
  let mask = Bytes.make ctx.Rib.Key.pfx_radix '\000' in
  Prefix.Tbl.iter
    (fun p () ->
      match Rib.Key.prefix_id ctx p with
      | Some i -> Bytes.set mask i '\001'
      | None -> ())
    dirty_tbl;
  let dropped = ref [] in
  let got =
    Rib.Arena.drop_prefixes ctx ~mask ~dirty
      ~on_drop:(fun d -> dropped := d :: !dropped)
      (Rib.Arena.of_routes ctx rs)
  in
  let is_dirty (r : Route.t) = dirty r.Route.prefix in
  let expected =
    Rib.Arena.of_routes ctx (List.filter (fun r -> not (is_dirty r)) rs)
  in
  let expected_devices =
    List.sort_uniq Route.compare rs
    |> List.filter is_dirty
    |> List.map (fun (r : Route.t) -> r.Route.device)
  in
  arena_equal got expected
  && List.equal String.equal
       (List.sort String.compare !dropped)
       (List.sort String.compare expected_devices)

let arb_drop = QCheck.pair arb_routes QCheck.small_nat

let prop_arena_drop_full_ctx =
  QCheck.Test.make ~count:200
    ~name:"arena drop by prefix id = List.filter (complete key universe)"
    arb_drop
    (drop_matches_filter ~universe:Fun.id)

let prop_arena_drop_partial_ctx =
  QCheck.Test.make ~count:200
    ~name:"arena drop by prefix id = List.filter (partial universe, overflow path)"
    arb_drop
    (drop_matches_filter
       ~universe:
         (List.filter (fun (r : Route.t) ->
              String.equal r.Route.vrf "global"
              && (String.equal r.Route.device "d0"
                 || String.equal r.Route.device "d1"))))

let test_arena_empty () =
  Alcotest.(check int)
    "merge of nothing" 0
    (List.length (Rib.Arena.merge []));
  let ctx = Rib.Key.of_routes [] in
  Alcotest.(check int)
    "merge of empties" 0
    (List.length (Rib.Arena.merge [ Rib.Arena.of_routes ctx [] ]))

let suite =
  [
    qtest prop_as_paths_agree;
    qtest prop_communities_agree;
    qtest prop_ids_deterministic;
    Alcotest.test_case "intern freeze lifecycle" `Quick test_freeze_lifecycle;
    qtest prop_attrs_roundtrip;
    Alcotest.test_case "packed attrs saturate" `Quick test_attrs_saturate;
    qtest prop_arena_merge_full_ctx;
    qtest prop_arena_merge_partial_ctx;
    qtest prop_arena_drop_full_ctx;
    qtest prop_arena_drop_partial_ctx;
    Alcotest.test_case "arena edge cases" `Quick test_arena_empty;
  ]
