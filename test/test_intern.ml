(* Properties of the packed performance representations, each against a
   list reference: packed route attributes round-trip; the chunked RIB's
   operations and slice readers (and the RCL and reach-intent readers
   built on them) equal their row scans; and the incremental chunk
   splice equals rebuilding the RIB from filtered rows, while sharing
   every untouched device's chunk with the base. *)

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

let gen_community =
  QCheck.Gen.(
    map2 (fun a t -> Community.make (1 + (a mod 10)) (t mod 10)) nat nat)

let gen_comm_set =
  QCheck.Gen.(
    map Community.Set.of_list (list_size (int_range 0 5) gen_community))

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
(* Multi-device RIBs and their list reference                          *)
(* ------------------------------------------------------------------ *)

module Incremental = Hoyan_sim.Incremental
module Intents = Hoyan_core.Intents
module Ast = Hoyan_rcl.Ast
module Value = Hoyan_rcl.Value
module Rcl_verify = Hoyan_rcl.Verify

let devices = [ "d0"; "d1"; "d2"; "d3"; "d4"; "d5" ]
let vrfs = [ Route.default_vrf; "vrf1"; "vrf2" ]

let prefixes =
  List.map Prefix.of_string_exn
    [
      "0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24";
      "192.0.2.0/24"; "2001:db8::/32"; "2001:db8:1::/48"; "::/0";
    ]

(* few distinct values per field, so slots hold several rows and
   generated RIBs overlap *)
let gen_row ?(proto = Route.Bgp) ?(devices = devices) ?(prefixes = prefixes)
    () =
  let open QCheck.Gen in
  let* device = oneofl devices in
  let* vrf = oneofl vrfs in
  let* prefix = oneofl prefixes in
  let* lp = int_range 0 2 in
  let* route_type = oneofl [ Route.Best; Route.Ecmp; Route.Backup ] in
  let* nh = opt (map (fun n -> Ip.V4 (1 + (n mod 3))) nat) in
  return
    (Route.make ~device ~vrf ~prefix ~proto ~local_pref:(100 + lp)
       ~route_type ?nexthop:nh ())

let gen_rows ?proto ?devices ?prefixes n =
  QCheck.Gen.(list_size (int_range 0 n) (gen_row ?proto ?devices ?prefixes ()))

let print_rows rs = string_of_int (List.length rs) ^ " routes"

(* the list reference: sorted, deduplicated rows *)
let canon rs = List.sort_uniq Route.compare rs
let rows_equal = List.equal Route.equal
let is_dev d (r : Route.t) = String.equal r.Route.device d

(* a base RIB and an updated one sharing every chunk but those of the
   replaced devices, with both as reference lists *)
let gen_pair =
  let open QCheck.Gen in
  let* base = gen_rows 60 in
  let* changed = list_size (int_range 0 3) (oneofl ("d9" :: devices)) in
  let changed = List.sort_uniq String.compare changed in
  let* fresh =
    flatten_l
      (List.map (fun d -> gen_rows ~devices:[ d ] 12) changed)
  in
  return (base, List.combine changed fresh)

let pair_lists (base, reps) =
  let updated =
    List.filter
      (fun (r : Route.t) -> not (List.mem_assoc r.Route.device reps))
      base
    @ List.concat_map snd reps
  in
  (canon base, canon updated)

let pair_ribs (base, reps) =
  let b = Rib.of_routes base in
  (b, Rib.replace b (List.map (fun (d, rs) -> (d, Rib.of_routes rs)) reps))

let arb_pair =
  QCheck.make
    ~print:(fun (b, reps) ->
      Printf.sprintf "%s, replaced %s" (print_rows b)
        (String.concat "," (List.map fst reps)))
    gen_pair

(* ------------------------------------------------------------------ *)
(* RIB operations = list reference                                     *)
(* ------------------------------------------------------------------ *)

let prop_rib_ops =
  QCheck.Test.make ~count:300 ~name:"Rib operations = list reference"
    arb_pair
    (fun ((_, reps) as g) ->
      let lb, lu = pair_lists g and b, u = pair_ribs g in
      let keep (r : Route.t) = Route.local_pref r > 100 in
      let key (r : Route.t) = r.Route.prefix in
      let ref_groups =
        List.fold_left
          (fun acc (r : Route.t) ->
            if List.exists (fun p -> Prefix.equal p (key r)) acc then acc
            else key r :: acc)
          [] lb
        |> List.rev
        |> List.map (fun p ->
               (p, List.filter (fun r -> Prefix.equal (key r) p) lb))
      in
      rows_equal (Rib.to_list b) lb
      && rows_equal (Rib.to_list u) lu
      && rows_equal (List.of_seq (Rib.to_seq u)) lu
      && rows_equal (List.rev (Rib.fold List.cons u [])) lu
      && Rib.length u = List.length lu
      && Rib.is_empty u = (lu = [])
      && rows_equal (Rib.to_list (Rib.diff b u))
           (List.filter (fun r -> not (List.exists (Route.equal r) lu)) lb)
      && rows_equal (Rib.to_list (Rib.diff u b))
           (List.filter (fun r -> not (List.exists (Route.equal r) lb)) lu)
      && Rib.equal b u = rows_equal lb lu
      && Rib.equal u (Rib.of_routes lu)
      && rows_equal (Rib.to_list (Rib.union [ b; u; b ])) (canon (lb @ lu))
      && rows_equal (Rib.to_list (Rib.filter keep u)) (List.filter keep lu)
      && rows_equal (Rib.to_list (Rib.copy u)) lu
      && List.equal
           (fun (p, a) (q, b) -> Prefix.equal p q && rows_equal a b)
           (List.map (fun (p, rib) -> (p, Rib.to_list rib)) (Rib.group_by key b))
           ref_groups
      && List.for_all
           (fun d ->
             Rib.shares_device b u d
             = (List.exists (is_dev d) lb && not (List.mem_assoc d reps)))
           ("d9" :: devices))

(* ------------------------------------------------------------------ *)
(* The chunk splice = rebuilding from filtered rows                    *)
(* ------------------------------------------------------------------ *)

type splice_case = {
  sc_bgp : Route.t list; (* base BGP rows *)
  sc_locals : (string * Route.t list) list; (* base local tables *)
  sc_dirty : Prefix.t list;
  sc_delta : Route.t list; (* the restricted fixpoint's rows *)
  sc_changed : (string * Route.t list) list; (* new local tables *)
}

let gen_splice =
  let open QCheck.Gen in
  let all = "d6" :: devices in
  let* sc_bgp = gen_rows 60 in
  let* sc_locals =
    flatten_l
      (List.map
         (fun d ->
           map (fun rs -> (d, rs))
             (gen_rows ~proto:Route.Direct ~devices:[ d ] 4))
         devices)
  in
  let* sc_dirty =
    map
      (fun bits -> List.filteri (fun i _ -> (bits lsr i) land 1 = 1) prefixes)
      (int_bound 255)
  in
  let* sc_delta =
    if sc_dirty = [] then return []
    else gen_rows ~devices:all ~prefixes:sc_dirty 15
  in
  let* changed = list_size (int_range 0 3) (oneofl all) in
  let* sc_changed =
    flatten_l
      (List.map
         (fun d ->
           map (fun rs -> (d, rs))
             (gen_rows ~proto:Route.Direct ~devices:[ d ] 4))
         (List.sort_uniq String.compare changed))
  in
  return { sc_bgp; sc_locals; sc_dirty; sc_delta; sc_changed }

let arb_splice =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "%s, dirty [%s], %d delta, changed [%s]"
        (print_rows c.sc_bgp)
        (String.concat " " (List.map Prefix.to_string c.sc_dirty))
        (List.length c.sc_delta)
        (String.concat " " (List.map fst c.sc_changed)))
    gen_splice

let prop_splice =
  QCheck.Test.make ~count:300
    ~name:"chunk splice = of_routes (clean @ delta @ locals), untouched shared"
    arb_splice
    (fun c ->
      let dirty p = List.exists (Prefix.equal p) c.sc_dirty in
      let locals d =
        match List.assoc_opt d c.sc_changed with
        | Some rs -> rs
        | None -> Option.value (List.assoc_opt d c.sc_locals) ~default:[]
      in
      let base_locals = List.concat_map snd c.sc_locals in
      let base = Rib.of_routes (c.sc_bgp @ base_locals) in
      let sb =
        Incremental.Splice.capture ~rib:base
          ~locals:(Rib.of_routes base_locals)
      in
      let tbl = Prefix.Tbl.create 8 in
      List.iter (fun p -> Prefix.Tbl.replace tbl p ()) c.sc_dirty;
      let got, st =
        Incremental.Splice.run sb ~dirty:tbl ~delta:(Rib.of_routes c.sc_delta)
          ~changed:(List.map fst c.sc_changed) ~locals
      in
      let clean =
        List.filter (fun (r : Route.t) -> not (dirty r.Route.prefix)) c.sc_bgp
      in
      let all = "d6" :: devices in
      let expected =
        Rib.of_routes (clean @ c.sc_delta @ List.concat_map locals all)
      in
      let touched d =
        List.exists
          (fun (r : Route.t) -> is_dev d r && dirty r.Route.prefix)
          c.sc_bgp
        || List.exists (is_dev d) c.sc_delta
        || List.mem_assoc d c.sc_changed
      in
      let in_base d = not (Rib.is_empty (Rib.device base d)) in
      Rib.equal got expected
      && List.for_all
           (fun d -> touched d || not (in_base d) || Rib.shares_device base got d)
           all
      && st.Incremental.Splice.sp_rebuilt = List.length (List.filter touched all)
      && st.Incremental.Splice.sp_shared
         = List.length
             (List.filter (fun d -> in_base d && not (touched d)) all)
      && st.Incremental.Splice.sp_reused = List.length (canon clean))

(* ------------------------------------------------------------------ *)
(* Slice readers = row scans                                           *)
(* ------------------------------------------------------------------ *)

let prop_slices =
  QCheck.Test.make ~count:300
    ~name:"Rib.device / slot / length / Intents.holders = row scans"
    arb_pair
    (fun g ->
      let _, rows = pair_lists g and _, rib = pair_ribs g in
      Rib.length rib = List.length rows
      && List.for_all
           (fun d ->
             rows_equal (Rib.to_list (Rib.device rib d))
               (List.filter (is_dev d) rows)
             && List.for_all
                  (fun vrf ->
                    List.for_all
                      (fun p ->
                        rows_equal
                          (Rib.slot rib ~device:d ~vrf ~prefix:p)
                          (List.filter
                             (fun (r : Route.t) ->
                               is_dev d r
                               && String.equal r.Route.vrf vrf
                               && Prefix.equal r.Route.prefix p)
                             rows))
                      prefixes)
                  vrfs)
           ("d9" :: "zz" :: devices)
      && List.for_all
           (fun p ->
             let h = Intents.holders rib p in
             List.sort String.compare
               (Hashtbl.fold (fun d () acc -> d :: acc) h [])
             = List.sort_uniq String.compare
                 (List.filter_map
                    (fun (r : Route.t) ->
                      if Prefix.equal r.Route.prefix p && Route.selected r
                      then Some r.Route.device
                      else None)
                    rows))
           (Prefix.of_string_exn "198.51.100.0/24" :: prefixes))

(* A list-scan oracle for the RCL fragment the slice readers serve:
   [forall device], [forall device in {..}], [device = X] guards and
   filters, [count] and [PRE = POST].  Violations as (path, rows). *)
let dev_eq d = Ast.P_cmp ("device", Ast.Eq, Value.Str d)

let rec oracle_pred (p : Ast.pred) (r : Route.t) =
  match p with
  | Ast.P_cmp ("device", Ast.Eq, Value.Str d) -> is_dev d r
  | Ast.P_cmp ("vrf", Ast.Eq, Value.Str v) -> String.equal r.Route.vrf v
  | Ast.P_and (a, b) -> oracle_pred a r && oracle_pred b r
  | _ -> invalid_arg "oracle_pred"

let rec oracle_transform t ~pre ~post =
  match t with
  | Ast.T_pre -> pre
  | Ast.T_post -> post
  | Ast.T_filter (t, p) ->
      List.filter (oracle_pred p) (oracle_transform t ~pre ~post)

let take n l = List.filteri (fun i _ -> i < n) l
let cap = take Rcl_verify.max_counterexample_routes

let rec oracle (g : Ast.intent) ~path ~pre ~post :
    (string list * Route.t list) list =
  let minus a b =
    List.filter (fun r -> not (List.exists (Route.equal r) b)) a
  in
  let sides t1 t2 =
    (oracle_transform t1 ~pre ~post, oracle_transform t2 ~pre ~post)
  in
  match g with
  | Ast.G_rib_cmp (t1, true, t2) ->
      let a, b = sides t1 t2 in
      if rows_equal a b then []
      else [ (List.rev path, cap (minus a b @ minus b a)) ]
  | Ast.G_eval_cmp
      (Ast.E_agg (t1, Ast.Count), Ast.Eq, Ast.E_agg (t2, Ast.Count)) ->
      let a, b = sides t1 t2 in
      if List.length a = List.length b then []
      else [ (List.rev path, cap (a @ b)) ]
  | Ast.G_guard (p, g) ->
      oracle g ~path:("guard" :: path) ~pre:(List.filter (oracle_pred p) pre)
        ~post:(List.filter (oracle_pred p) post)
  | Ast.G_forall ("device", g) ->
      let seen = ref [] in
      List.iter
        (fun (r : Route.t) ->
          if not (List.mem r.Route.device !seen) then
            seen := r.Route.device :: !seen)
        (pre @ post);
      List.concat_map (fun d -> oracle_at d g ~path ~pre ~post) (List.rev !seen)
  | Ast.G_forall_in ("device", vals, g) ->
      List.concat_map
        (function
          | Value.Str d -> oracle_at d g ~path ~pre ~post
          | _ -> assert false)
        vals
  | Ast.G_and (a, b) -> oracle a ~path ~pre ~post @ oracle b ~path ~pre ~post
  | _ -> invalid_arg "oracle"

and oracle_at d g ~path ~pre ~post =
  oracle g
    ~path:(("forall device=" ^ d) :: path)
    ~pre:(List.filter (is_dev d) pre) ~post:(List.filter (is_dev d) post)

let gen_intent =
  let open QCheck.Gen in
  let dev = oneofl ("d9" :: devices) in
  let on t = function None -> t | Some p -> Ast.T_filter (t, p) in
  let leaf =
    let* scope =
      oneof
        [
          return None;
          map (fun d -> Some (dev_eq d)) dev;
          map
            (fun d ->
              Some
                (Ast.P_and
                   (Ast.P_cmp ("vrf", Ast.Eq, Value.Str "vrf1"), dev_eq d)))
            dev;
        ]
    in
    oneofl
      [
        Ast.G_rib_cmp (on Ast.T_pre scope, true, on Ast.T_post scope);
        Ast.G_eval_cmp
          (Ast.E_agg (on Ast.T_pre scope, Ast.Count), Ast.Eq,
           Ast.E_agg (on Ast.T_post scope, Ast.Count));
      ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (2, map (fun g -> Ast.G_forall ("device", g)) (self (n - 1)));
            ( 2,
              map2
                (fun ds g ->
                  Ast.G_forall_in
                    ("device", List.map (fun d -> Value.Str d) ds, g))
                (list_size (int_range 1 3) dev)
                (self (n - 1)) );
            (2, map2 (fun d g -> Ast.G_guard (dev_eq d, g)) dev (self (n - 1)));
            (1, map2 (fun a b -> Ast.G_and (a, b)) (self (n - 1)) (self (n - 1)));
          ])
    2

let prop_rcl_slices =
  QCheck.Test.make ~count:300
    ~name:"RCL device slices and count = list-scan oracle"
    (QCheck.pair arb_pair (QCheck.make gen_intent))
    (fun (g, intent) ->
      let pre_l, post_l = pair_lists g and pre, post = pair_ribs g in
      let got =
        match Rcl_verify.check intent ~base:pre ~updated:post with
        | Rcl_verify.Satisfied -> []
        | Rcl_verify.Violated vs ->
            List.map
              (fun (v : Rcl_verify.violation) ->
                (v.Rcl_verify.v_path, v.Rcl_verify.v_routes))
              vs
      in
      List.equal
        (fun (p, a) (q, b) -> List.equal String.equal p q && rows_equal a b)
        got
        (oracle intent ~path:[] ~pre:pre_l ~post:post_l))

(* ------------------------------------------------------------------ *)
(* FIB build = grouping reference                                      *)
(* ------------------------------------------------------------------ *)

module Traffic_sim = Hoyan_sim.Traffic_sim
module Parallel = Hoyan_sim.Parallel
module G = Hoyan_workload.Generator

(* The reference build: group every default-VRF row by (device, prefix)
   in one table, then bind each group's installed routes into its
   device's trie. *)
let reference_fibs (rib : Rib.t) : Traffic_sim.fib =
  let tbl : (string * Prefix.t, Route.t list) Hashtbl.t = Hashtbl.create 64 in
  Rib.iter
    (fun (r : Route.t) ->
      if String.equal r.Route.vrf Route.default_vrf then begin
        let key = (r.Route.device, r.Route.prefix) in
        let existing = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
        Hashtbl.replace tbl key (r :: existing)
      end)
    rib;
  let builders = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (dev, prefix) routes ->
      match Traffic_sim.install routes with
      | [] -> ()
      | installed ->
          let b =
            match Hashtbl.find_opt builders dev with
            | Some b -> b
            | None ->
                let b = Trie.Dual.Builder.create () in
                Hashtbl.add builders dev b;
                b
          in
          Trie.Dual.Builder.add b prefix installed)
    tbl;
  let fibs = Hashtbl.create 8 in
  Hashtbl.iter
    (fun dev b -> Hashtbl.replace fibs dev (Trie.Dual.Builder.build b))
    builders;
  fibs

(* the same devices, each binding the same prefixes to the same routes *)
let fibs_equal (a : Traffic_sim.fib) (b : Traffic_sim.fib) =
  let devs t = List.sort compare (Hashtbl.fold (fun d _ l -> d :: l) t []) in
  List.equal String.equal (devs a) (devs b)
  && Hashtbl.fold
       (fun dev ta ok ->
         ok
         && List.equal
              (fun (p, rs) (q, ss) -> Prefix.equal p q && rows_equal rs ss)
              (Trie.Dual.to_list ta)
              (Trie.Dual.to_list (Hashtbl.find b dev)))
       a true

(* Rows of every admin preference and route type over v4 and v6
   prefixes in three VRFs, one Backup-only default-VRF slot, and device
   "dv" whose rows all lie outside the default VRF. *)
let gen_fib_rib =
  let open QCheck.Gen in
  let* rows = gen_rows 80 in
  let* prefs = list_repeat (List.length rows) (oneofl [ 20; 115; 200 ]) in
  let rows =
    List.map2 (fun (r : Route.t) preference -> { r with Route.preference })
      rows prefs
  in
  let* backup_prefix = oneofl prefixes in
  let backup =
    List.map
      (fun lp ->
        Route.make ~device:"d0" ~prefix:backup_prefix ~local_pref:lp
          ~route_type:Route.Backup ())
      [ 100; 101 ]
  in
  let* vrf_only = gen_rows ~devices:[ "dv" ] 10 in
  let vrf_only =
    List.map
      (fun (r : Route.t) ->
        if String.equal r.Route.vrf Route.default_vrf then
          { r with Route.vrf = "vrf1" }
        else r)
      vrf_only
  in
  return
    (List.filter
       (fun (r : Route.t) ->
         not
           (String.equal r.Route.device "d0"
           && String.equal r.Route.vrf Route.default_vrf
           && Prefix.equal r.Route.prefix backup_prefix))
       rows
    @ backup @ vrf_only)

let prop_fib_build =
  QCheck.Test.make ~count:300 ~name:"FIB build = grouping reference"
    (QCheck.make ~print:print_rows gen_fib_rib)
    (fun rows ->
      let rib = Rib.of_routes rows in
      let want = reference_fibs rib in
      (* run at the default domain count, and nested in an outer map *)
      fibs_equal (Traffic_sim.build_fibs rib) want
      && (not (Hashtbl.mem (Traffic_sim.build_fibs rib) "dv"))
      && List.for_all
           (fun f -> fibs_equal f want)
           (Parallel.map ~domains:2
              (fun () -> Traffic_sim.build_fibs rib)
              [ (); () ]))

let test_fib_build_wan () =
  let g = G.generate { G.wan with G.g_seed = 1 } in
  let rib =
    (Hoyan_sim.Route_sim.run g.G.model ~input_routes:g.G.input_routes ())
      .Hoyan_sim.Route_sim.rib
  in
  Alcotest.(check bool)
    "wan seed 1: build = reference" true
    (fibs_equal (Traffic_sim.build_fibs rib) (reference_fibs rib))

let suite =
  [
    qtest prop_attrs_roundtrip;
    Alcotest.test_case "packed attrs saturate" `Quick test_attrs_saturate;
    qtest prop_rib_ops;
    qtest prop_splice;
    qtest prop_slices;
    qtest prop_rcl_slices;
    qtest prop_fib_build;
    Alcotest.test_case "FIB build = grouping reference on wan" `Slow
      test_fib_build_wan;
  ]
