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
  let cost te_aware =
    let igp = Isis.compute ~te_aware (B.topo b) (B.configs b) in
    let ix d = Option.get (Isis.index igp d) in
    Isis.cost igp ~src:(ix "A") ~dst:(ix "B")
  in
  check Alcotest.int "TE-aware avoids the expensive link" 20 (cost true);
  check Alcotest.int "TE-blind uses the default metric" 10 (cost false)

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
(* SPF oracle: Isis views vs Floyd-Warshall                           *)
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

(* Reference IGP over [devs] and undirected [links], by name.  A
   Floyd-Warshall over (cost, hops) pairs gives each pair's distance [d]
   and the fewest edges [h] on a shortest path.  The shortest-path DAG of
   [s] holds the edges [a -> m] of cost [c] with d(s,a) + c = d(s,m) and,
   when [c = 0], h(s,a) + 1 = h(s,m).  The first hops of (s, t) are the
   DAG successors of [s] from which the DAG reaches [t], by name; the
   path of (s, t) follows the name-smallest such successor from each
   device on it. *)
let reference_spf ~te_aware devs links =
  let devs = Array.of_list (List.sort String.compare devs) in
  let n = Array.length devs in
  let idx name =
    let r = ref (-1) in
    Array.iteri (fun i d -> if d = name then r := i) devs;
    !r
  in
  let inf = max_int / 4 in
  let d = Array.make_matrix n n inf and h = Array.make_matrix n n inf in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0;
    h.(i).(i) <- 0
  done;
  let edges =
    List.concat_map
      (fun (a, b, cost, te) ->
        let c = if te && not te_aware then 10 else cost in
        [ (idx a, idx b, c); (idx b, idx a, c) ])
      links
  in
  let better (c, k) (c', k') = c < c' || (c = c' && k < k') in
  List.iter
    (fun (a, b, c) ->
      if better (c, 1) (d.(a).(b), h.(a).(b)) then begin
        d.(a).(b) <- c;
        h.(a).(b) <- 1
      end)
    edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = (d.(i).(k) + d.(k).(j), h.(i).(k) + h.(k).(j)) in
        if fst via < inf && better via (d.(i).(j), h.(i).(j)) then begin
          d.(i).(j) <- fst via;
          h.(i).(j) <- snd via
        end
      done
    done
  done;
  let dag s a m c =
    d.(s).(a) < inf
    && d.(s).(a) + c = d.(s).(m)
    && (c > 0 || h.(s).(a) + 1 = h.(s).(m))
  in
  (* the devices from which the DAG of [s] reaches [t], to a fixpoint *)
  let toward s t =
    let r = Array.make n false in
    r.(t) <- true;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (a, m, c) ->
          if r.(m) && (not r.(a)) && dag s a m c then begin
            r.(a) <- true;
            changed := true
          end)
        edges
    done;
    r
  in
  let succs s r a =
    List.filter_map
      (fun (a', m, c) ->
        if a' = a && r.(m) && dag s a m c then Some m else None)
      edges
    |> List.sort_uniq Int.compare
  in
  let known s t = idx s >= 0 && idx t >= 0 in
  let cost s t =
    if not (known s t) then None
    else
      let c = d.(idx s).(idx t) in
      if c >= inf then None else Some c
  in
  let first_hops s t =
    if cost s t = None || s = t then []
    else
      let i = idx s in
      List.map (Array.get devs) (succs i (toward i (idx t)) i)
  in
  let some_path s t =
    if cost s t = None then None
    else
      let i = idx s and j = idx t in
      let r = toward i j in
      let rec walk cur acc =
        if cur = j then Some (List.rev_map (Array.get devs) (cur :: acc))
        else
          match succs i r cur with
          | m :: _ -> walk m (cur :: acc)
          | [] -> None
      in
      walk i []
  in
  (* the pre-DAG definitions, exact on positive costs: the neighbours [m]
     with c(s->m) + d(m,t) = d(s,t), and the walk over each device's own
     name-smallest first hop *)
  let legacy_hops s t =
    if cost s t = None || s = t then []
    else
      let i = idx s and j = idx t in
      List.filter_map
        (fun (a, m, c) ->
          if a = i && c + d.(m).(j) = d.(i).(j) then Some devs.(m) else None)
        edges
      |> List.sort_uniq String.compare
  in
  let legacy_path s t =
    let rec walk cur acc =
      if cur = t then Some (List.rev (t :: acc))
      else
        match legacy_hops cur t with
        | [] -> None
        | m :: _ -> walk m (cur :: acc)
    in
    if cost s t = None then None else walk s []
  in
  (cost, first_hops, some_path, legacy_hops, legacy_path)

(* A random failure case for [seed]: a random topology (costs
   {1,2,3,10}, or with 0 in a third of them), random source and read
   subsets, random failed links (some repeated or absent) and devices,
   and [Change_plan.apply_topo_op]'s failed topology. *)
let random_failure_case seed =
  let module Cp = Hoyan_config.Change_plan in
  let rng = Random.State.make [| seed |] in
  let zero = Random.State.int rng 3 = 0 in
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
  (b, links, names, sources, reads, cut, dead, failed)

(* One oracle for the IS-IS engine.  On a random topology (costs
   {1,2,3,10}, or with 0 in a third of them; parallel links, TE
   interfaces) with random failed links (some repeated or absent) and
   devices, three views are read against [reference_spf] on
   [Change_plan.apply_topo_op]'s failed topology: [compute] on the
   failed topology, and [fail] of [compute] on the intact one, over
   every device and over random source and read subsets.  Every source-to-read
   cost, reachability, first hops and [some_path] must match (a removed
   device unreachable as source and as target); on positive costs the
   first hops and paths must also match the pre-DAG definitions.  For
   the masks: [linked] is the failed topology's link relation, every
   live source's row is counted as reused or recomputed, no row is
   reused over a zero cost, and a lookup outside the sources or the
   reads is refused. *)
let prop_spf_oracle =
  QCheck.Test.make
    ~name:"Isis == Floyd-Warshall reference (random masked views)" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let b, links, names, sources, reads, cut, dead, failed =
        random_failure_case seed
      in
      let live_links =
        List.filter
          (fun (x, y, _, _) ->
            (not (List.mem x dead || List.mem y dead))
            && not
                 (List.exists
                    (fun (a, bb) -> (x = a && y = bb) || (x = bb && y = a))
                    cut))
          links
      in
      let live = List.filter (fun d -> not (List.mem d dead)) names in
      List.iter
        (fun te_aware ->
          let ctx =
            Printf.sprintf "seed %d te_aware=%b cut=[%s] dead=[%s]" seed
              te_aware
              (String.concat "," (List.map (fun (a, bb) -> a ^ "-" ^ bb) cut))
              (String.concat "," dead)
          in
          let ref_cost, ref_fh, ref_path, legacy_fh, legacy_path =
            reference_spf ~te_aware live live_links
          in
          let positive =
            List.for_all
              (fun (_, _, c, te) -> c > 0 || (te && not te_aware))
              live_links
          in
          let full = Isis.compute ~te_aware (B.topo b) (B.configs b) in
          let part =
            Isis.compute ~te_aware ~sources:("unknown" :: sources)
              ~reads:("unknown" :: reads) (B.topo b) (B.configs b)
          in
          if Isis.index part "unknown" <> None then
            QCheck.Test.fail_reportf "%s: unknown device indexed" ctx;
          let mask v =
            let ix d = Option.get (Isis.index v d) in
            Isis.fail v
              ~links:(List.map (fun (a, bb) -> (ix a, ix bb)) cut)
              ~devices:(List.map ix dead)
          in
          (* the view, its topology's devices, its sources and reads *)
          let views =
            [
              ( "compute on the failed topology",
                Isis.compute ~te_aware failed (B.configs b), live, live, live );
              ("masked compute", mask full, names, names, names);
              ("masked restricted", mask part, names, sources, reads);
            ]
          in
          List.iter
            (fun (what, v, devs, sources, reads) ->
              let ctx = ctx ^ " " ^ what in
              let ix d = Option.get (Isis.index v d) in
              let name = Isis.name v in
              List.iter
                (fun s ->
                  List.iter
                    (fun t ->
                      let src = ix s and dst = ix t in
                      let got = Isis.cost v ~src ~dst in
                      let c = Option.value (ref_cost s t) ~default:max_int in
                      if got <> c then
                        QCheck.Test.fail_reportf "%s: cost %s->%s = %d, want %d"
                          ctx s t got c;
                      if Isis.reachable v ~src ~dst <> (c <> max_int) then
                        QCheck.Test.fail_reportf "%s: reachable %s->%s" ctx s t;
                      if (List.mem s dead || List.mem t dead) && got <> max_int
                      then
                        QCheck.Test.fail_reportf "%s: removed %s->%s reachable"
                          ctx s t;
                      let fh = List.map name (Isis.first_hops v ~src ~dst) in
                      if fh <> ref_fh s t then
                        QCheck.Test.fail_reportf "%s: first hops %s->%s [%s]"
                          ctx s t (String.concat "," fh);
                      let path =
                        Option.map (List.map name) (Isis.some_path v ~src ~dst)
                      in
                      if path <> ref_path s t then
                        QCheck.Test.fail_reportf "%s: some_path %s->%s" ctx s t;
                      if
                        positive
                        && (fh <> legacy_fh s t || path <> legacy_path s t)
                      then
                        QCheck.Test.fail_reportf
                          "%s: %s->%s moved on positive costs" ctx s t)
                    reads)
                sources;
              if what <> "compute on the failed topology" then begin
                List.iter
                  (fun a ->
                    List.iter
                      (fun bb ->
                        if
                          Isis.linked v (ix a) (ix bb)
                          <> Option.is_some (Topology.edge_between failed a bb)
                        then
                          QCheck.Test.fail_reportf "%s: linked %s-%s" ctx a bb)
                      devs)
                  devs;
                let live_sources =
                  List.filter (fun s -> not (List.mem s dead)) sources
                in
                if
                  Isis.reused v + Isis.recomputed v
                  <> List.length live_sources
                then QCheck.Test.fail_reportf "%s: row accounting" ctx;
                if
                  List.exists
                    (fun (_, _, c, te) -> c = 0 && not (te && not te_aware))
                    links
                  && Isis.reused v <> 0
                then
                  QCheck.Test.fail_reportf "%s: reused a row over a zero cost"
                    ctx
              end;
              (* lookups outside the sources or the reads are refused *)
              let refused f =
                match f () with
                | _ -> false
                | exception Invalid_argument _ -> true
              in
              let readers =
                [
                  (fun s d -> ignore (Isis.cost v ~src:(ix s) ~dst:(ix d)));
                  (fun s d ->
                    ignore (Isis.first_hops v ~src:(ix s) ~dst:(ix d)));
                  (fun s d ->
                    ignore (Isis.some_path v ~src:(ix s) ~dst:(ix d)));
                ]
              in
              List.iter
                (fun d ->
                  List.iter
                    (fun read ->
                      if
                        (not (List.mem d sources))
                        && not (refused (fun () -> read d d))
                      then
                        QCheck.Test.fail_reportf "%s: non-source %s served" ctx
                          d;
                      if
                        (not (List.mem d reads))
                        && sources <> []
                        && not (refused (fun () -> read (List.hd sources) d))
                      then
                        QCheck.Test.fail_reportf "%s: non-read %s served" ctx d)
                    readers)
                devs)
            views)
        [ true; false ];
      true)

(* A masked view equals a view computed on the failed topology: on a
   random failure case, [fail] of [compute] on the intact topology (over
   every device, and over the case's sources and reads), in one step and
   with the failures split over two successive [fail]s, reads the same
   costs, first hops and [some_path] as [compute] on the failed topology
   with the same sources and reads, by name; a removed device reads as
   down and unreachable, and [linked] is the failed view's link
   relation. *)
let prop_failure_view_oracle =
  QCheck.Test.make ~name:"Isis.View == Isis.compute on the failed topology"
    ~count:200 (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let b, _, names, sources, reads, cut, dead, failed =
        random_failure_case seed
      in
      List.iter
        (fun te_aware ->
          let ctx = Printf.sprintf "seed %d te_aware=%b" seed te_aware in
          List.iter
            (fun (restricted, sources, reads) ->
              let compute topo =
                if restricted then
                  Isis.compute ~te_aware ~sources ~reads topo (B.configs b)
                else Isis.compute ~te_aware topo (B.configs b)
              in
              let want = compute failed and base = compute (B.topo b) in
              let ix d = Option.get (Isis.index base d) in
              let links = List.map (fun (a, bb) -> (ix a, ix bb)) cut
              and devices = List.map ix dead in
              let half l = List.filteri (fun i _ -> i mod 2 = 0) l
              and rest l = List.filteri (fun i _ -> i mod 2 = 1) l in
              let views =
                [
                  ("one fail", Isis.fail base ~links ~devices);
                  ( "two fails",
                    Isis.fail
                      (Isis.fail base ~links:(half links)
                         ~devices:(rest devices))
                      ~links:(rest links) ~devices:(half devices) );
                ]
              in
              List.iter
                (fun (what, v) ->
                  let ctx =
                    Printf.sprintf "%s restricted=%b %s" ctx restricted what
                  in
                  let wix d = Isis.index want d in
                  List.iter
                    (fun s ->
                      if Isis.down v (ix s) <> List.mem s dead then
                        QCheck.Test.fail_reportf "%s: down %s" ctx s;
                      List.iter
                        (fun t ->
                          let src = ix s and dst = ix t in
                          let got_fh =
                            List.map (Isis.name v) (Isis.first_hops v ~src ~dst)
                          and got_path =
                            Option.map (List.map (Isis.name v))
                              (Isis.some_path v ~src ~dst)
                          in
                          let c, fh, path =
                            match (wix s, wix t) with
                            | Some src, Some dst ->
                                ( Isis.cost want ~src ~dst,
                                  List.map (Isis.name want)
                                    (Isis.first_hops want ~src ~dst),
                                  Option.map
                                    (List.map (Isis.name want))
                                    (Isis.some_path want ~src ~dst) )
                            | _ -> (max_int, [], None)
                          in
                          if Isis.cost v ~src ~dst <> c then
                            QCheck.Test.fail_reportf "%s: cost %s->%s" ctx s t;
                          if got_fh <> fh then
                            QCheck.Test.fail_reportf "%s: first hops %s->%s"
                              ctx s t;
                          if got_path <> path then
                            QCheck.Test.fail_reportf "%s: some_path %s->%s" ctx
                              s t)
                        reads)
                    sources;
                  List.iter
                    (fun a ->
                      List.iter
                        (fun bb ->
                          let w =
                            match (wix a, wix bb) with
                            | Some x, Some y -> Isis.linked want x y
                            | _ -> false
                          in
                          if Isis.linked v (ix a) (ix bb) <> w then
                            QCheck.Test.fail_reportf "%s: linked %s-%s" ctx a
                              bb)
                        names)
                    names)
                views)
            [ (false, names, names); (true, sources, reads) ])
        [ true; false ];
      true)

(* Failing in two steps is failing once: on a random failure case, over
   every device and over the case's sources and reads, [fail] of [fail]
   (the links and devices split between the two) reads the same down
   set, links, costs and first hops as one [fail] of the union, and
   counts the same reused, recomputed and re-settled work: a view's rows
   always come from the no-failure rows under its whole mask. *)
let prop_fail_of_fail =
  QCheck.Test.make ~name:"Isis.fail of Isis.fail == one fail of the union"
    ~count:200 (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let b, _, names, sources, reads, cut, dead, _ =
        random_failure_case seed
      in
      List.iter
        (fun (te_aware, sources, reads) ->
          let ctx = Printf.sprintf "seed %d te_aware=%b" seed te_aware in
          let base =
            Isis.compute ~te_aware ~sources ~reads (B.topo b) (B.configs b)
          in
          let ix d = Option.get (Isis.index base d) in
          let links = List.map (fun (a, bb) -> (ix a, ix bb)) cut
          and devices = List.map ix dead in
          let half l = List.filteri (fun i _ -> i mod 2 = 0) l
          and rest l = List.filteri (fun i _ -> i mod 2 = 1) l in
          let once = Isis.fail base ~links ~devices in
          let twice =
            Isis.fail
              (Isis.fail base ~links:(half links) ~devices:(half devices))
              ~links:(rest links) ~devices:(rest devices)
          in
          let counts v = (Isis.reused v, Isis.recomputed v, Isis.resettled v) in
          if counts once <> counts twice then
            QCheck.Test.fail_reportf "%s: reused/recomputed/resettled" ctx;
          List.iter
            (fun a ->
              if Isis.down once (ix a) <> Isis.down twice (ix a) then
                QCheck.Test.fail_reportf "%s: down %s" ctx a;
              List.iter
                (fun bb ->
                  if Isis.linked once (ix a) (ix bb)
                     <> Isis.linked twice (ix a) (ix bb)
                  then QCheck.Test.fail_reportf "%s: linked %s-%s" ctx a bb)
                names)
            names;
          List.iter
            (fun s ->
              List.iter
                (fun t ->
                  let src = ix s and dst = ix t in
                  if Isis.cost once ~src ~dst <> Isis.cost twice ~src ~dst then
                    QCheck.Test.fail_reportf "%s: cost %s->%s" ctx s t;
                  if
                    Isis.first_hops once ~src ~dst
                    <> Isis.first_hops twice ~src ~dst
                  then QCheck.Test.fail_reportf "%s: first hops %s->%s" ctx s t)
                reads)
            sources)
        [ (true, names, names); (false, names, names); (true, sources, reads) ];
      true)

(* The repair on a generated WAN: on [wan] seed 1, every single-link and
   every single-device [fail] of the model's view reads, between every
   pair of live devices, the cost a from-scratch Dijkstra ([compute]) on
   the failed topology gives; and the repaired rows re-settle fewer nodes
   than recomputing them would. *)
let test_wan_repair () =
  let module G = Hoyan_workload.Generator in
  let module Cp = Hoyan_config.Change_plan in
  let model = (G.generate { G.wan with G.g_seed = 1 }).G.model in
  let igp = model.Model.igp and topo = model.Model.topo in
  let ix d = Option.get (Isis.index igp d) in
  let names = Topology.device_names topo in
  let pairs =
    Topology.edges topo
    |> List.filter_map (fun (e : Topology.edge) ->
           if e.Topology.src < e.Topology.dst then
             Some (e.Topology.src, e.Topology.dst)
           else None)
    |> List.sort_uniq compare
  in
  let scenarios =
    List.map (fun (ra, rb) -> ([ (ra, rb) ], [])) pairs
    @ List.map (fun d -> ([], [ d ])) names
  in
  let recomputed = ref 0 and resettled = ref 0 in
  List.iter
    (fun (cut, dead) ->
      let v =
        Isis.fail igp
          ~links:(List.map (fun (a, bb) -> (ix a, ix bb)) cut)
          ~devices:(List.map ix dead)
      in
      recomputed := !recomputed + Isis.recomputed v;
      resettled := !resettled + Isis.resettled v;
      let failed =
        List.fold_left Cp.apply_topo_op topo
          (List.map (fun (ra, rb) -> Cp.Remove_link { ra; rb }) cut
          @ List.map (fun d -> Cp.Remove_device d) dead)
      in
      let want =
        Isis.compute ~te_aware:model.Model.te_aware failed model.Model.configs
      in
      let wix d = Option.get (Isis.index want d) in
      let live = Topology.device_names failed in
      List.iter
        (fun s ->
          List.iter
            (fun t ->
              let got = Isis.cost v ~src:(ix s) ~dst:(ix t)
              and c = Isis.cost want ~src:(wix s) ~dst:(wix t) in
              if got <> c then
                Alcotest.failf "[%s | %s]: cost %s->%s = %d, want %d"
                  (String.concat "," (List.map (fun (a, bb) -> a ^ "-" ^ bb) cut))
                  (String.concat "," dead) s t got c)
            live)
        live)
    scenarios;
  check tbool "every link and device failed" true
    (List.length pairs > 100 && List.length names > 90);
  check tbool "some row repaired" true (!recomputed > 0);
  check tbool "the repair re-settles fewer nodes than a recompute" true
    (!resettled < !recomputed * List.length names)

(* Zero-cost ECMP ties: with a-b at cost 0 and b-d, a-d at 10, the walk
   toward d must not bounce between a and b, a device is no first hop of
   itself, and an SR policy over the tie resolves. *)
let test_zero_cost_ties () =
  let b = B.create () in
  List.iter
    (fun (n, id) ->
      B.add_device b ~name:n ~vendor:"vendorA" ~asn:65000 ~router_id:(B.ip id)
        ())
    [ ("a", "1.1.1.1"); ("b", "2.2.2.2"); ("d", "4.4.4.4") ];
  ignore (B.link b ~a:"a" ~b:"b" ~subnet:(pfx "10.1.0.0/31") ~cost:0 ());
  ignore (B.link b ~a:"b" ~b:"d" ~subnet:(pfx "10.2.0.0/31") ~cost:10 ());
  ignore (B.link b ~a:"a" ~b:"d" ~subnet:(pfx "10.3.0.0/31") ~cost:10 ());
  B.add_sr_policy b "a"
    { Types.sp_name = "TO_D"; sp_endpoint = B.ip "4.4.4.4"; sp_color = 1;
      sp_segments = []; sp_preference = 100 };
  let model = B.build b in
  let igp = model.Model.igp in
  let ix d = Option.get (Isis.index igp d) in
  let names = List.map (Isis.name igp) in
  check Alcotest.(list string) "a is no first hop of itself" []
    (names (Isis.first_hops igp ~src:(ix "a") ~dst:(ix "a")));
  check Alcotest.(list string) "both ties are first hops" [ "b"; "d" ]
    (names (Isis.first_hops igp ~src:(ix "a") ~dst:(ix "d")));
  check
    Alcotest.(option (list string))
    "some_path a->d ends on a shortest path" (Some [ "a"; "b"; "d" ])
    (Option.map names (Isis.some_path igp ~src:(ix "a") ~dst:(ix "d")));
  check Alcotest.(list (list string)) "the SR tunnel follows it"
    [ [ "a"; "b"; "d" ] ]
    (List.map (fun t -> t.Sr.tn_path) (Model.Smap.find "a" model.Model.tunnels))

(* A negative link cost is refused rather than looping Dijkstra. *)
let test_negative_cost_refused () =
  let b = B.create () in
  List.iter
    (fun (n, id) ->
      B.add_device b ~name:n ~vendor:"vendorA" ~asn:65000 ~router_id:(B.ip id)
        ())
    [ ("a", "1.1.1.1"); ("b", "2.2.2.2") ];
  ignore (B.link b ~a:"a" ~b:"b" ~subnet:(pfx "10.1.0.0/31") ~cost:(-1) ());
  check tbool "Invalid_argument" true
    (match Isis.compute (B.topo b) (B.configs b) with
    | _ -> false
    | exception Invalid_argument _ -> true)

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
      (Rib.to_list rib)
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
       (Rib.to_list rib))

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

(* R2 denies, on import from R1, every path that [".* 666 .*"] matches:
   a deep match the legacy regex engine misses. *)
let deep_filter_line () =
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
  b

let test_regex_injection_into_model () =
  (* the model-level regex hook changes policy behaviour end to end *)
  let b = deep_filter_line () in
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
      (Rib.to_list (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib)
  in
  check tbool "correct engine denies the deep match" false (has strict);
  check tbool "legacy engine lets it through" true (has flawed)

(* The fixpoint memoises AS-path verdicts per run, keyed by (pattern,
   rendered path): the injected legacy matcher still decides every
   verdict, and runs once per distinct pair, not once per evaluation. *)
let test_regex_memo_keeps_legacy_verdict () =
  let b = deep_filter_line () in
  let prefixes = List.init 6 (Printf.sprintf "66.0.%d.0/24") in
  (* one MED per prefix, so no two share an equivalence class and each
     is evaluated on its own *)
  let inputs =
    List.mapi
      (fun med prefix ->
        B.input_route ~device:"R1" ~prefix ~as_path:[ 1; 2; 666; 3 ] ~med ())
      prefixes
  in
  let calls = ref [] in
  let counting pattern path =
    calls := (pattern, path) :: !calls;
    Hoyan_regex.Regex.Legacy.matches_str pattern path
  in
  let at_r2 model =
    let rib =
      (Route_sim.run ~domains:1 model ~input_routes:inputs ()).Route_sim.rib
    in
    List.filter
      (fun p -> Rib.slot rib ~device:"R2" ~vrf:Route.default_vrf
                  ~prefix:(pfx p) <> [])
      prefixes
  in
  check (Alcotest.list Alcotest.string) "legacy verdict on every prefix"
    prefixes (at_r2 (B.build ~regex:counting b));
  check (Alcotest.list Alcotest.string) "correct engine denies them all" []
    (at_r2 (B.build b));
  let distinct = List.sort_uniq compare !calls in
  check tbool "the injected matcher ran" true (distinct <> []);
  check Alcotest.int "one call per (pattern, path)" (List.length distinct)
    (List.length !calls)

let suite =
  [
    ("SR tunnel along the IGP path", `Quick, test_sr_igp_path_tunnel);
    ("SR explicit segment list", `Quick, test_sr_explicit_segments);
    ("IS-IS TE awareness", `Quick, test_isis_te_awareness);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1790 |])
      prop_spf_oracle;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1791 |])
      prop_failure_view_oracle;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1792 |])
      prop_fail_of_fail;
    ("Isis.fail == Dijkstra on the masked graph: wan", `Quick, test_wan_repair);
    ("IS-IS zero-cost ECMP ties", `Quick, test_zero_cost_ties);
    ("IS-IS refuses a negative cost", `Quick, test_negative_cost_refused);
    ("well-known communities (eBGP)", `Quick, test_well_known_communities);
    ("NO_EXPORT crosses iBGP", `Quick, test_no_export_crosses_ibgp);
    ("post-change validation", `Quick, test_postcheck);
    ("regex engine injection", `Quick, test_regex_injection_into_model);
    ( "regex memo keeps the legacy verdict",
      `Quick,
      test_regex_memo_keeps_legacy_verdict );
    ("a patched model stays TE-blind", `Quick, test_patch_keeps_te_blindness);
  ]
