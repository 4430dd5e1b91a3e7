(* Focused protocol tests: SR segment expansion, IS-IS TE awareness,
   well-known communities, regex injection into policies, and the
   post-change validator. *)

open Hoyan_net
module B = Hoyan_workload.Builder
module Types = Hoyan_config.Types
module Isis = Hoyan_proto.Isis
module Sr = Hoyan_proto.Sr
module Route_sim = Hoyan_sim.Route_sim
module Model = Hoyan_sim.Model
module Route_monitor = Hoyan_monitor.Route_monitor
module Postcheck = Hoyan_diag.Postcheck

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let pfx = Prefix.of_string_exn

(* A-B-C-D line plus a chord A-D. *)
let sr_net () =
  let b = B.create () in
  List.iter
    (fun (n, id) ->
      B.add_device b ~name:n ~vendor:"vendorA" ~asn:65000 ~router_id:(B.ip id) ())
    [ ("A", "1.1.1.1"); ("B", "2.2.2.2"); ("C", "3.3.3.3"); ("D", "4.4.4.4") ];
  ignore (B.link b ~a:"A" ~b:"B" ~subnet:(pfx "10.1.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"B" ~b:"C" ~subnet:(pfx "10.2.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"C" ~b:"D" ~subnet:(pfx "10.3.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"A" ~b:"D" ~subnet:(pfx "10.4.0.0/31") ~cost:5 ());
  b

let test_sr_igp_path_tunnel () =
  let b = sr_net () in
  B.add_sr_policy b "A"
    { Types.sp_name = "TO_D"; sp_endpoint = B.ip "4.4.4.4"; sp_color = 1;
      sp_segments = []; sp_preference = 100 };
  let model = B.build b in
  let tunnels = Model.Smap.find "A" model.Model.tunnels in
  check tint "one tunnel" 1 (List.length tunnels);
  let t = List.hd tunnels in
  (* IGP shortest path uses the cheap chord *)
  check Alcotest.(list string) "igp path" [ "A"; "D" ] t.Sr.tn_path;
  check tbool "reaches endpoint" true (Sr.reaches tunnels (B.ip "4.4.4.4"));
  check tbool "not other addresses" false (Sr.reaches tunnels (B.ip "3.3.3.3"))

let test_sr_explicit_segments () =
  let b = sr_net () in
  (* a detour via waypoint C: each leg follows the IGP shortest path, so
     the tunnel runs A-D-C (cheapest way to C) and then back C-D *)
  B.add_sr_policy b "A"
    { Types.sp_name = "VIA_C"; sp_endpoint = B.ip "4.4.4.4"; sp_color = 2;
      sp_segments = [ "C"; "D" ]; sp_preference = 50 };
  let model = B.build b in
  let tunnels = Model.Smap.find "A" model.Model.tunnels in
  let t = List.hd tunnels in
  check Alcotest.(list string) "explicit waypoints honoured"
    [ "A"; "D"; "C"; "D" ] t.Sr.tn_path

(* A-B over a TE-flagged, expensive link, and A-C-B at the default
   metric. *)
let te_net () =
  let b = B.create () in
  List.iter
    (fun (n, id) ->
      B.add_device b ~name:n ~vendor:"vendorA" ~asn:65000 ~router_id:(B.ip id) ())
    [ ("A", "1.1.1.1"); ("B", "2.2.2.2"); ("C", "3.3.3.3") ];
  ignore (B.link b ~a:"A" ~b:"B" ~subnet:(pfx "10.1.0.0/31") ~cost:100 ~te:true ());
  ignore (B.link b ~a:"A" ~b:"C" ~subnet:(pfx "10.2.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"C" ~b:"B" ~subnet:(pfx "10.3.0.0/31") ~cost:10 ());
  b

let test_isis_te_awareness () =
  (* a TE-flagged interface with a big cost: honoured only when the model
     is TE-aware (the pre-2023 gap of §5.3) *)
  let b = te_net () in
  let aware = Isis.compute ~te_aware:true (B.topo b) (B.configs b) in
  let blind = Isis.compute ~te_aware:false (B.topo b) (B.configs b) in
  check (Alcotest.option Alcotest.int) "TE-aware avoids the expensive link"
    (Some 20)
    (Isis.cost aware ~src:"A" ~dst:"B");
  check (Alcotest.option Alcotest.int) "TE-blind uses the default metric"
    (Some 10)
    (Isis.cost blind ~src:"A" ~dst:"B")

(* A patched model keeps its base's modelling choices: a TE-blind model
   stays TE-blind through a no-op plan, so A's redistributed IS-IS row
   for B keeps the default-metric cost. *)
let test_patch_keeps_te_blindness () =
  let b = te_net () in
  B.add_redistribute b "A" Route.Isis;
  let rib m = (Route_sim.run m ~input_routes:[] ()).Route_sim.rib in
  let blind = B.build ~te_aware:false b in
  let patched, _ =
    Model.apply_change_plan blind (Hoyan_config.Change_plan.make "noop")
  in
  check tbool "still TE-blind" false patched.Model.te_aware;
  check tbool "TE-blind and TE-aware RIBs differ" false
    (Rib.equal (rib blind) (rib (B.build b)));
  check tbool "patched RIB = the TE-blind RIB" true
    (Rib.equal (rib blind) (rib patched))

(* ------------------------------------------------------------------ *)
(* SPF oracle: Isis vs Floyd-Warshall                                  *)
(* ------------------------------------------------------------------ *)

(* A random builder topology: [n] devices named n0..n(n-1) (so name order
   is not numeric order), links with costs from [costs] (default
   {1,2,3,10}: many ECMP ties), parallel links, some TE-flagged
   interfaces, and no connectivity guarantee.  Returns the builder and
   the links as (a, b, cost, te). *)
let random_spf_net ?(costs = [| 1; 2; 3; 10 |]) rng =
  let n = 2 + Random.State.int rng 11 in
  let b = B.create () in
  let name i = Printf.sprintf "n%d" i in
  for i = 0 to n - 1 do
    B.add_device b ~name:(name i) ~vendor:"vendorA" ~asn:65000
      ~router_id:(B.ip (Printf.sprintf "10.255.%d.1" i))
      ()
  done;
  let links = ref [] in
  for k = 0 to Random.State.int rng (2 * n) do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    let i, j =
      (* a parallel copy of an earlier link now and then *)
      match !links with
      | (a, bb, _, _) :: _ when Random.State.int rng 5 = 0 -> (a, bb)
      | _ -> (name i, name j)
    in
    if i <> j then begin
      let cost = costs.(Random.State.int rng (Array.length costs)) in
      let te = Random.State.int rng 4 = 0 in
      ignore
        (B.link b ~a:i ~b:j
           ~subnet:(pfx (Printf.sprintf "10.%d.%d.0/31" (k / 100) (k mod 100)))
           ~cost ~te ());
      links := (i, j, cost, te) :: !links
    end
  done;
  (b, !links)

(* Reference IGP view over [devs] and undirected [links]: Floyd-Warshall
   distances; the first hops of (s, t) are the neighbours m with
   c(s->m) + d(m, t) = d(s, t), sorted by name. *)
let reference_spf ~te_aware devs links =
  let devs = Array.of_list (List.sort String.compare devs) in
  let n = Array.length devs in
  let idx name =
    let r = ref (-1) in
    Array.iteri (fun i d -> if d = name then r := i) devs;
    !r
  in
  let inf = max_int / 4 in
  let d = Array.make_matrix n n inf in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0
  done;
  let edges =
    List.concat_map
      (fun (a, b, cost, te) ->
        let c = if te && not te_aware then 10 else cost in
        [ (idx a, idx b, c); (idx b, idx a, c) ])
      links
  in
  List.iter (fun (a, b, c) -> if c < d.(a).(b) then d.(a).(b) <- c) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then
          d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  let cost s t =
    match (idx s, idx t) with
    | -1, _ | _, -1 -> None
    | i, j -> if d.(i).(j) >= inf then None else Some d.(i).(j)
  in
  let first_hops s t =
    match (idx s, idx t) with
    | -1, _ | _, -1 -> []
    | i, j when i = j || d.(i).(j) >= inf -> []
    | i, j ->
        List.filter_map
          (fun (a, m, c) ->
            if a = i && c + d.(m).(j) = d.(i).(j) then Some devs.(m) else None)
          edges
        |> List.sort_uniq String.compare
  in
  (cost, first_hops)

let prop_spf_oracle =
  QCheck.Test.make ~name:"Isis == Floyd-Warshall reference (random topologies)"
    ~count:150 (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let b, links = random_spf_net rng in
      let names = Topology.device_names (B.topo b) in
      (* the topology as built, after removing all links between one
         pair, and after removing one device *)
      let variants =
        let victim = List.nth names (Random.State.int rng (List.length names)) in
        let base = [ ("base", B.topo b, names, links) ] in
        let cut =
          match links with
          | [] -> []
          | (a, bb, _, _) :: _ ->
              [
                ( "remove_link",
                  Topology.remove_link (B.topo b) ~a ~b:bb,
                  names,
                  List.filter
                    (fun (x, y, _, _) ->
                      not ((x = a && y = bb) || (x = bb && y = a)))
                    links );
              ]
        in
        base @ cut
        @ [
            ( "remove_device",
              Topology.remove_device (B.topo b) victim,
              List.filter (( <> ) victim) names,
              List.filter (fun (x, y, _, _) -> x <> victim && y <> victim) links );
          ]
      in
      let queried = "unknown" :: names in
      List.iter
        (fun (what, topo, devs, links) ->
          List.iter
            (fun te_aware ->
              let ctx = Printf.sprintf "seed %d %s te_aware=%b" seed what te_aware in
              let ref_cost, ref_fh = reference_spf ~te_aware devs links in
              let all = Isis.compute ~te_aware topo (B.configs b) in
              if Isis.devices all <> List.sort String.compare devs then
                QCheck.Test.fail_reportf "%s: devices differ" ctx;
              List.iter
                (fun s ->
                  List.iter
                    (fun t ->
                      let c = Isis.cost all ~src:s ~dst:t in
                      let fh = Isis.first_hops all ~src:s ~dst:t in
                      if c <> ref_cost s t then
                        QCheck.Test.fail_reportf "%s: cost %s->%s" ctx s t;
                      if fh <> ref_fh s t then
                        QCheck.Test.fail_reportf "%s: first hops %s->%s [%s]" ctx
                          s t (String.concat "," fh);
                      if Isis.reachable all ~src:s ~dst:t <> (c <> None) then
                        QCheck.Test.fail_reportf "%s: reachable %s->%s" ctx s t;
                      (* some_path follows the name-smallest first hop *)
                      let rec walk cur acc =
                        if cur = t then Some (List.rev (t :: acc))
                        else
                          match ref_fh cur t with
                          | [] -> None
                          | h :: _ -> walk h (cur :: acc)
                      in
                      let want = if c = None then None else walk s [] in
                      if Isis.some_path all ~src:s ~dst:t <> want then
                        QCheck.Test.fail_reportf "%s: some_path %s->%s" ctx s t)
                    queried)
                queried)
            [ true; false ])
        variants;
      true)

(* Failure views: on a random topology, random source and read sets and
   a random set of failed links (some absent) and devices, every
   source-to-read distance of [Isis.View] equals [Isis.compute] on the
   topology with those links and devices removed; a removed device is
   unreachable as source and as target; [linked] is the failed
   topology's link relation; every live source's row is counted as reused
   or recomputed, and every row is recomputed when a cost is zero. *)
let prop_failure_view_oracle =
  let module Cp = Hoyan_config.Change_plan in
  QCheck.Test.make ~name:"Isis.View == Isis.compute on the failed topology"
    ~count:300 (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let zero = Random.State.int rng 4 = 0 in
      let costs = if zero then [| 0; 1; 2; 3; 10 |] else [| 1; 2; 3; 10 |] in
      let b, links = random_spf_net ~costs rng in
      let names = Topology.device_names (B.topo b) in
      let pick () = List.nth names (Random.State.int rng (List.length names)) in
      let subset () =
        if Random.State.int rng 3 = 0 then names
        else List.filter (fun _ -> Random.State.bool rng) names
      in
      let sources = subset () and reads = subset () in
      let cut =
        List.init (Random.State.int rng 4) (fun _ ->
            match links with
            | (a, bb, _, _) :: _ when Random.State.int rng 4 = 0 -> (a, bb)
            | _ -> (
                let i = Random.State.int rng (1 + List.length links) in
                match List.nth_opt links i with
                | Some (a, bb, _, _) -> (a, bb)
                | None -> (pick (), pick ())))
        |> List.filter (fun (a, bb) -> a <> bb)
      in
      let dead =
        List.sort_uniq String.compare
          (List.init (Random.State.int rng 3) (fun _ -> pick ()))
      in
      let failed =
        List.fold_left Cp.apply_topo_op (B.topo b)
          (List.map (fun (ra, rb) -> Cp.Remove_link { ra; rb }) cut
          @ List.map (fun d -> Cp.Remove_device d) dead)
      in
      List.iter
        (fun te_aware ->
          let ctx =
            Printf.sprintf "seed %d te_aware=%b cut=[%s] dead=[%s]" seed
              te_aware
              (String.concat "," (List.map (fun (a, bb) -> a ^ "-" ^ bb) cut))
              (String.concat "," dead)
          in
          let want = Isis.compute ~te_aware failed (B.configs b) in
          let base =
            Isis.View.base ~te_aware (B.topo b) (B.configs b)
              ~sources:("unknown" :: sources) ~reads:("unknown" :: reads)
          in
          let ix d = Option.get (Isis.View.index base d) in
          if Isis.View.index base "unknown" <> None then
            QCheck.Test.fail_reportf "%s: unknown device indexed" ctx;
          let v =
            Isis.View.fail base
              ~links:(List.map (fun (a, bb) -> (ix a, ix bb)) cut)
              ~devices:(List.map ix dead)
          in
          List.iter
            (fun s ->
              List.iter
                (fun t ->
                  let got = Isis.View.cost v ~src:(ix s) ~dst:(ix t) in
                  let c =
                    Option.value (Isis.cost want ~src:s ~dst:t) ~default:max_int
                  in
                  if got <> c then
                    QCheck.Test.fail_reportf "%s: cost %s->%s = %d, want %d" ctx
                      s t got c;
                  let r = Isis.View.reachable v ~src:(ix s) ~dst:(ix t) in
                  if r <> (c <> max_int) then
                    QCheck.Test.fail_reportf "%s: reachable %s->%s" ctx s t;
                  if (List.mem s dead || List.mem t dead) && got <> max_int then
                    QCheck.Test.fail_reportf "%s: removed %s->%s reachable" ctx
                      s t)
                reads)
            sources;
          List.iter
            (fun a ->
              List.iter
                (fun bb ->
                  if
                    Isis.View.linked v (ix a) (ix bb)
                    <> Option.is_some (Topology.edge_between failed a bb)
                  then QCheck.Test.fail_reportf "%s: linked %s-%s" ctx a bb)
                names)
            names;
          let live = List.filter (fun s -> not (List.mem s dead)) sources in
          let rows = Isis.View.reused v + Isis.View.recomputed v in
          if rows <> List.length live then
            QCheck.Test.fail_reportf "%s: row accounting" ctx;
          if
            List.exists
              (fun (_, _, c, te) -> c = 0 && not (te && not te_aware))
              links
            && Isis.View.reused v <> 0
          then QCheck.Test.fail_reportf "%s: reused a row over a zero cost" ctx;
          (* lookups outside the sources or the reads are refused *)
          let refused f =
            match f () with _ -> false | exception Invalid_argument _ -> true
          in
          let cost s d = Isis.View.cost v ~src:(ix s) ~dst:(ix d) in
          List.iter
            (fun d ->
              if
                (not (List.mem d sources))
                && not (refused (fun () -> cost d d))
              then QCheck.Test.fail_reportf "%s: non-source %s served" ctx d;
              if
                (not (List.mem d reads))
                && sources <> []
                && not (refused (fun () -> cost (List.hd sources) d))
              then QCheck.Test.fail_reportf "%s: non-read %s served" ctx d)
            names)
        [ true; false ];
      true)

let line_with_pass () =
  let b = B.create () in
  B.add_device b ~name:"R1" ~vendor:"vendorA" ~asn:65001
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"R2" ~vendor:"vendorA" ~asn:65002
    ~router_id:(B.ip "2.2.2.2") ();
  B.add_device b ~name:"R3" ~vendor:"vendorA" ~asn:65003
    ~router_id:(B.ip "3.3.3.3") ();
  let a12, b12 = B.link b ~a:"R1" ~b:"R2" ~subnet:(pfx "10.12.0.0/31") () in
  let a23, b23 = B.link b ~a:"R2" ~b:"R3" ~subnet:(pfx "10.23.0.0/31") () in
  B.bgp_session b ~a:"R1" ~b:"R2" ~a_addr:a12 ~b_addr:b12 ();
  B.bgp_session b ~a:"R2" ~b:"R3" ~a_addr:a23 ~b_addr:b23 ();
  b

let test_well_known_communities () =
  let b = line_with_pass () in
  let model = B.build b in
  let mk prefix communities =
    B.input_route ~device:"R1" ~prefix ~as_path:[ 7018 ]
      ~communities ()
  in
  let inputs =
    [
      mk "99.0.0.0/24" [];
      mk "99.1.0.0/24" [ "65535:65281" ] (* NO_EXPORT *);
      mk "99.2.0.0/24" [ "65535:65282" ] (* NO_ADVERTISE *);
    ]
  in
  let rib = (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib in
  let present dev p =
    List.exists
      (fun (r : Route.t) ->
        String.equal r.Route.device dev && Prefix.equal r.Route.prefix (pfx p))
      (rib :> Route.t list)
  in
  check tbool "plain route propagates" true (present "R2" "99.0.0.0/24");
  (* R1-R2 is eBGP: NO_EXPORT stops at R1 *)
  check tbool "NO_EXPORT blocked over eBGP" false (present "R2" "99.1.0.0/24");
  check tbool "NO_ADVERTISE never advertised" false (present "R2" "99.2.0.0/24");
  check tbool "both stay in R1's RIB" true
    (present "R1" "99.1.0.0/24" && present "R1" "99.2.0.0/24")

let test_no_export_crosses_ibgp () =
  (* NO_EXPORT still crosses iBGP sessions *)
  let b = B.create () in
  B.add_device b ~name:"X" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "1.1.1.1") ();
  B.add_device b ~name:"Y" ~vendor:"vendorA" ~asn:65000
    ~router_id:(B.ip "2.2.2.2") ();
  ignore (B.link b ~a:"X" ~b:"Y" ~subnet:(pfx "10.0.0.0/31") ());
  B.ibgp_loopback_session b ~a:"X" ~b:"Y" ~b_rr_client:true ();
  let model = B.build b in
  let inputs =
    [ B.input_route ~device:"Y" ~prefix:"99.1.0.0/24" ~nexthop:"2.2.2.2"
        ~communities:[ "65535:65281" ] ~as_path:[ 7 ] () ]
  in
  let rib = (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib in
  check tbool "NO_EXPORT crosses iBGP" true
    (List.exists
       (fun (r : Route.t) ->
         String.equal r.Route.device "X"
         && Prefix.equal r.Route.prefix (pfx "99.1.0.0/24"))
       (rib :> Route.t list))

let test_postcheck () =
  let b = line_with_pass () in
  let model = B.build b in
  let inputs =
    [ B.input_route ~device:"R1" ~prefix:"99.0.0.0/24" ~as_path:[ 7018 ] () ]
  in
  let live_rib = (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib in
  let live_tr =
    Hoyan_sim.Traffic_sim.run model ~rib:live_rib ~flows:[] ()
  in
  let monitored = Route_monitor.observe (Route_monitor.create ()) live_rib in
  (* consistent rollout: live matches the simulation *)
  let v =
    Postcheck.validate model ~input_routes:inputs ~flows:[]
      ~live_monitored_rib:monitored
      ~live_monitored_loads:live_tr.Hoyan_sim.Traffic_sim.link_load
  in
  check tbool "consistent rollout passes" true v.Postcheck.pc_consistent;
  (* a vendor bug on the live network: R3 dropped the route *)
  let broken =
    List.filter
      (fun (r : Route.t) -> not (String.equal r.Route.device "R3"))
      monitored
  in
  let v2 =
    Postcheck.validate model ~input_routes:inputs ~flows:[]
      ~live_monitored_rib:broken
      ~live_monitored_loads:live_tr.Hoyan_sim.Traffic_sim.link_load
  in
  check tbool "inconsistency triggers rollback" false v2.Postcheck.pc_consistent

let test_regex_injection_into_model () =
  (* the model-level regex hook changes policy behaviour end to end *)
  let b = line_with_pass () in
  B.update_config b "R2" (fun cfg ->
      { cfg with
        Types.dc_aspath_filters =
          Types.Smap.add "F"
            { Types.af_name = "F";
              af_entries =
                [ { Types.ae_seq = 5; ae_action = Types.Permit;
                    ae_regex = ".* 666 .*" } ] }
            cfg.Types.dc_aspath_filters });
  B.add_policy b "R2"
    (B.policy "IMP"
       [
         B.node 10 ~action:(Some Types.Deny)
           ~matches:[ Types.Match_aspath_filter "F" ];
         B.node 20;
       ]);
  B.update_config b "R2" (fun cfg ->
      { cfg with
        Types.dc_bgp =
          { cfg.Types.dc_bgp with
            Types.bgp_neighbors =
              List.map
                (fun (nb : Types.neighbor) ->
                  if Ip.equal nb.Types.nb_addr (B.ip "10.12.0.0") then
                    { nb with Types.nb_import = Some "IMP" }
                  else nb)
                cfg.Types.dc_bgp.Types.bgp_neighbors } });
  let inputs =
    [ B.input_route ~device:"R1" ~prefix:"66.0.0.0/24"
        ~as_path:[ 1; 2; 666; 3 ] () ]
  in
  let strict = B.build b in
  let flawed = B.build ~regex:Hoyan_regex.Regex.Legacy.matches_str b in
  let has model =
    List.exists
      (fun (r : Route.t) ->
        String.equal r.Route.device "R2"
        && Prefix.equal r.Route.prefix (pfx "66.0.0.0/24"))
      ((Route_sim.run model ~input_routes:inputs ()).Route_sim.rib
        :> Route.t list)
  in
  check tbool "correct engine denies the deep match" false (has strict);
  check tbool "legacy engine lets it through" true (has flawed)

let suite =
  [
    ("SR tunnel along the IGP path", `Quick, test_sr_igp_path_tunnel);
    ("SR explicit segment list", `Quick, test_sr_explicit_segments);
    ("IS-IS TE awareness", `Quick, test_isis_te_awareness);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1789 |])
      prop_spf_oracle;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1790 |])
      prop_failure_view_oracle;
    ("well-known communities (eBGP)", `Quick, test_well_known_communities);
    ("NO_EXPORT crosses iBGP", `Quick, test_no_export_crosses_ibgp);
    ("post-change validation", `Quick, test_postcheck);
    ("regex engine injection", `Quick, test_regex_injection_into_model);
    ("a patched model stays TE-blind", `Quick, test_patch_keeps_te_blindness);
  ]
