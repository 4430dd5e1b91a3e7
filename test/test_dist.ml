(* Tests for the distributed simulation framework: splitters, the ordering
   heuristic, master/worker execution, failure retry, the schedule replay,
   and the domain-parallel map. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Faultplan = Hoyan_workload.Faultplan
module Split = Hoyan_dist.Split
module Framework = Hoyan_dist.Framework
module Schedule = Hoyan_dist.Schedule
module Db = Hoyan_dist.Db
module Mq = Hoyan_dist.Mq
module Chaos = Hoyan_dist.Chaos
module Parallel = Hoyan_sim.Parallel
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Verify_request = Hoyan_core.Verify_request
module Preprocess = Hoyan_core.Preprocess
module Intents = Hoyan_core.Intents
module Cp = Hoyan_config.Change_plan
module B = Hoyan_workload.Builder
module Model = Hoyan_sim.Model
module Types = Hoyan_config.Types


(* fixed seed: the property suites are deterministic run to run *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |]) t

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let scenario = lazy (G.generate G.small)

(* The planner's promises for a run cut of [routes] on [model], each
   checked: whole keys per run (every input and aggregate prefix owned by
   exactly one run, an aggregate's components by its run); every input
   route in exactly one run, in input order; and every row a run yields
   inside its recorded range.  Returns each run's rows. *)
let check_runs ~msg (model : Model.t) (routes : Route.t list)
    (runs : Route_sim.run list) : Rib.t list =
  let owners =
    List.map
      (fun (rn : Route_sim.run) -> Route_sim.owns model rn.Route_sim.rn_keys)
      runs
  in
  let owner p =
    match
      List.concat
        (List.mapi (fun i owns -> if owns p then [ i ] else []) owners)
    with
    | [ i ] -> i
    | l ->
        Alcotest.failf "%s: %s has %d owning runs" msg (Prefix.to_string p)
          (List.length l)
  in
  Model.Smap.iter
    (fun _ (c : Types.t) ->
      List.iter
        (fun (ag : Types.aggregate) ->
          let home = owner ag.Types.ag_prefix in
          List.iter
            (fun (r : Route.t) ->
              if Prefix.subsumes ag.Types.ag_prefix r.Route.prefix then
                check tint (msg ^ ": a component runs with its aggregate") home
                  (owner r.Route.prefix))
            routes)
        c.Types.dc_bgp.Types.bgp_aggregates)
    model.Model.configs;
  check tint (msg ^ ": every route in one run") (List.length routes)
    (List.fold_left
       (fun n (rn : Route_sim.run) -> n + List.length rn.Route_sim.rn_routes)
       0 runs);
  List.map2
    (fun (rn : Route_sim.run) owns ->
      check tbool (msg ^ ": a run holds the routes it owns, in input order")
        true
        (List.equal ( == )
           (List.filter (fun (r : Route.t) -> owns r.Route.prefix) routes)
           rn.Route_sim.rn_routes);
      let rows =
        (Route_sim.run ~include_locals:false ~only:owns ~domains:1 model
           ~input_routes:rn.Route_sim.rn_routes ())
          .Route_sim.rib
      in
      let lo, hi = rn.Route_sim.rn_range in
      Rib.iter
        (fun (r : Route.t) ->
          if
            Ip.compare (Prefix.first_addr r.Route.prefix) lo < 0
            || Ip.compare (Prefix.last_addr r.Route.prefix) hi > 0
          then
            Alcotest.failf "%s: row %s outside its run's range" msg
              (Route.to_string r))
        rows;
      rows)
    runs owners

let test_split_routes_ordered () =
  let g = Lazy.force scenario in
  List.iter
    (fun (msg, model) ->
      let runs =
        Route_sim.runs ~order:Split.Ordered ~n:10 model g.G.input_routes
      in
      check tbool (msg ^ ": at most 10 runs") true (List.length runs <= 10);
      ignore (check_runs ~msg model g.G.input_routes runs))
    (("small", g.G.model)
    :: List.init 3 (fun seed ->
           ( Printf.sprintf "small + aggregates %d" seed,
             Agg_nets.add ~seed g )))

let test_split_flows () =
  let g = Lazy.force scenario in
  let splits =
    Split.split_flows ~strategy:Split.Ordered ~subtasks:8 g.G.flows
  in
  let total = List.fold_left (fun n (fs, _) -> n + List.length fs) 0 splits in
  check tint "no flow lost" (List.length g.G.flows) total;
  (* destination ranges are ordered and non-overlapping for Ordered *)
  let ranges = List.map snd splits in
  let rec non_overlapping = function
    | (_, hi) :: ((lo2, _) :: _ as rest) ->
        Ip.compare hi lo2 <= 0 && non_overlapping rest
    | _ -> true
  in
  check tbool "ordered ranges disjoint" true (non_overlapping ranges)

(* The master-collect identity contract at every tested subtask count:
   each framework route-phase RIB is the sequential [Route_sim.run] RIB
   row for row (both are canonical [Rib.t]s, so equality is list
   equality), and so is the uncapped centralized baseline's.  Runs on the
   small scenario, on small with generated aggregates (plain,
   summary-only, nested) or after the example aggregate plan, and on a
   reduced wan (800 prefixes, ~86k RIB rows). *)
let identity ?(centralized = true) name (model : Model.t) inputs
    subtask_counts =
  let direct = (Route_sim.run model ~input_routes:inputs ()).Route_sim.rib in
  List.iter
    (fun subtasks ->
      let fw = Framework.create model in
      let rib =
        (Framework.run_route_phase ~subtasks fw ~input_routes:inputs)
          .Framework.rp_rib
      in
      check tbool
        (Printf.sprintf "%s: %d subtask(s) row-for-row equal to direct" name
           subtasks)
        true (Rib.equal direct rib))
    subtask_counts;
  if centralized then
    check tbool (name ^ ": centralized rows = direct rows") true
      (Rib.equal direct
         (Hoyan_sim.Centralized.run ~mem_cap_bytes:max_int model
            ~input_routes:inputs ())
           .Hoyan_sim.Centralized.c_rib)

let test_distributed_equals_direct () =
  let g = Lazy.force scenario in
  identity "small" g.G.model g.G.input_routes [ 1; 7; 32; 100 ];
  for seed = 1 to 4 do
    identity
      (Printf.sprintf "small + aggregates %d" seed)
      (Agg_nets.add ~seed g) g.G.input_routes [ 1; 7; 32; 100 ]
  done;
  (* [examples/aggregate_plan.txt], an aggregate over 75 inputs: a cut
     that ignores aggregates puts its contributors in different
     subtasks at 32 and 100, each originating its own copy *)
  List.iter
    (fun summary_only ->
      identity
        (if summary_only then "aggregate plan, summary-only"
         else "aggregate plan")
        (Agg_nets.example_plan ~summary_only g.G.model)
        g.G.input_routes [ 32; 100 ])
    [ false; true ];
  let wan800 = G.generate { G.wan with G.g_prefixes = 800 } in
  identity ~centralized:false "wan/800" wan800.G.model wan800.G.input_routes
    [ 1; 32 ]

(* property: on [test bgp]'s generated networks (nested plain,
   summary-only and AS-set aggregates, an aggregate in a VRF that leaks
   into it, IS-IS loopbacks redistributed under an aggregate) every
   executor equals the direct run *)
let prop_executors_on_generated_aggregates =
  QCheck.Test.make ~count:30
    ~name:"framework, centralized = direct (generated aggregates, VRFs)"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let model, inputs = Test_bgp.sharded_network seed in
      identity (Printf.sprintf "network %d" seed) model inputs
        [ 1; 7; 32; 100 ];
      true)

let test_traffic_phase_and_dependencies () =
  let g = Lazy.force scenario in
  let fw = Framework.create g.G.model in
  let rp = Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes in
  let tp =
    Framework.run_traffic_phase ~subtasks:8 ~dep_mode:Framework.Deps_ordered fw
      ~route_phase:rp ~flows:g.G.flows
  in
  (* loads through the framework equal a direct traffic run *)
  let direct =
    Traffic_sim.run g.G.model ~rib:rp.Framework.rp_rib ~flows:g.G.flows ()
  in
  let total tbl = Hashtbl.fold (fun _ v a -> a +. v) tbl 0. in
  check (Alcotest.float 1.0) "loads agree"
    (total direct.Traffic_sim.link_load)
    (total tp.Framework.tp_link_load);
  (* the ordering heuristic loads strictly fewer RIB files than all *)
  let fw2 = Framework.create g.G.model in
  let rp2 = Framework.run_route_phase ~subtasks:10 fw2 ~input_routes:g.G.input_routes in
  let tp_all =
    Framework.run_traffic_phase ~subtasks:8 ~dep_mode:Framework.Deps_all fw2
      ~route_phase:rp2 ~flows:g.G.flows
  in
  let avg fracs =
    List.fold_left (fun a (_, f) -> a +. f) 0. fracs
    /. float_of_int (List.length fracs)
  in
  check tbool "ordered loads fewer files" true
    (avg tp.Framework.tp_loaded_fracs < avg tp_all.Framework.tp_loaded_fracs);
  check (Alcotest.float 0.001) "all-mode loads everything" 1.0
    (avg tp_all.Framework.tp_loaded_fracs);
  (* and the results are nevertheless identical (dependency soundness) *)
  check (Alcotest.float 1.0) "ordered = all results"
    (total tp_all.Framework.tp_link_load)
    (total tp.Framework.tp_link_load)

let test_random_split_loads_everything () =
  let g = Lazy.force scenario in
  let fw = Framework.create g.G.model in
  let rp =
    Framework.run_route_phase ~strategy:(Split.Random 5) ~subtasks:10 fw
      ~input_routes:g.G.input_routes
  in
  let tp =
    Framework.run_traffic_phase ~strategy:(Split.Random 6) ~subtasks:8
      ~dep_mode:Framework.Deps_ordered fw ~route_phase:rp ~flows:g.G.flows
  in
  (* with random partitions nearly every subtask depends on nearly every
     RIB file (Figure 5d's contrast) *)
  let avg =
    List.fold_left (fun a (_, f) -> a +. f) 0. tp.Framework.tp_loaded_fracs
    /. float_of_int (List.length tp.Framework.tp_loaded_fracs)
  in
  check tbool "random split loads ~all files" true (avg > 0.9)

let test_failure_retry () =
  let g = Lazy.force scenario in
  let fw =
    Framework.create ~chaos:(Chaos.make ~seed:11 ~crash_prob:0.3 ()) g.G.model
  in
  let phase =
    Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes
  in
  (* despite injected worker crashes, the monitor re-sends every failed
     subtask; under the outcome contract the phase either completes or
     reports exactly who failed *)
  check tbool "db settled" true (Db.all_settled fw.Framework.db);
  (if phase.Framework.rp_complete then begin
     check tbool "no failures reported" true (phase.Framework.rp_failed = []);
     let direct =
       (Route_sim.run g.G.model ~input_routes:g.G.input_routes ())
         .Route_sim.rib
     in
     check tbool "rib correct despite failures" true
       (Rib.equal direct phase.Framework.rp_rib)
   end
   else
     check tbool "incomplete phase lists its failures" true
       (phase.Framework.rp_failed <> []));
  (* at least one retry actually happened, through the monitor *)
  let retried =
    Db.all fw.Framework.db
    |> List.exists (fun (_, e) -> Db.attempts e > 1)
  in
  check tbool "some subtask was retried" true retried;
  check tbool "monitor re-sent something" true (phase.Framework.rp_resends > 0)

let test_schedule_makespan () =
  (* makespan on 1 server is the sum; more servers monotonically help;
     a single huge job bounds the makespan from below *)
  let durations = [ 10.; 1.; 1.; 1.; 1.; 1.; 1.; 1. ] in
  let m1, _ = Schedule.makespan ~servers:1 durations in
  let m4, _ = Schedule.makespan ~servers:4 durations in
  let m100, _ = Schedule.makespan ~servers:100 durations in
  check (Alcotest.float 0.001) "1 server = sum" 17.0 m1;
  check tbool "4 servers faster" true (m4 < m1);
  check (Alcotest.float 0.001) "bounded by longest job" 10.0 m100;
  (* the CDF helper is a proper CDF *)
  let cdf = Schedule.cdf durations in
  check (Alcotest.float 0.001) "cdf ends at 1" 1.0 (snd (List.nth cdf 7));
  check tbool "cdf sorted" true
    (List.for_all2
       (fun (a, _) (b, _) -> a <= b)
       (List.filteri (fun i _ -> i < 7) cdf)
       (List.tl cdf))

let test_schedule_lpt () =
  (* LPT processes the longest job first: on 2 servers the FIFO order
     [3;3;4;2] packs to 7 while LPT's [4;3;3;2] packs to 6 *)
  let durations = [ 3.; 3.; 4.; 2. ] in
  let fifo, _ = Schedule.makespan ~policy:Schedule.Fifo ~servers:2 durations in
  let lpt, _ = Schedule.makespan ~policy:Schedule.Lpt ~servers:2 durations in
  check (Alcotest.float 0.001) "fifo packs to 7" 7.0 fifo;
  check (Alcotest.float 0.001) "lpt packs to 6" 6.0 lpt;
  (* on 1 server the policy cannot matter: both are the sum *)
  let f1, _ = Schedule.makespan ~policy:Schedule.Fifo ~servers:1 durations in
  let l1, _ = Schedule.makespan ~policy:Schedule.Lpt ~servers:1 durations in
  check (Alcotest.float 0.001) "1 server fifo = sum" 12.0 f1;
  check (Alcotest.float 0.001) "1 server lpt = sum" 12.0 l1

let test_schedule_edge_cases () =
  (* empty job list: zero makespan, no busy servers *)
  let m0, busy0 = Schedule.makespan ~servers:4 [] in
  check (Alcotest.float 0.001) "empty makespan" 0.0 m0;
  check tint "empty busy array sized by servers" 4 (Array.length busy0);
  Array.iter (fun b -> check (Alcotest.float 0.001) "idle server" 0.0 b) busy0;
  let l0, _ = Schedule.makespan ~policy:Schedule.Lpt ~servers:4 [] in
  check (Alcotest.float 0.001) "empty lpt makespan" 0.0 l0;
  (* a single job occupies exactly one server for its duration *)
  let m1, _ = Schedule.makespan ~servers:8 [ 2.5 ] in
  check (Alcotest.float 0.001) "single job" 2.5 m1;
  (* the empty CDF is the empty list *)
  check tint "empty cdf" 0 (List.length (Schedule.cdf []))

(* property: under LPT, adding servers never increases the makespan.
   (Not true of FIFO in general — a queue-order anomaly can make a
   wider pool slower — but LPT's longest-first order is anomaly-free
   under the earliest-free-server replay.) *)
let prop_lpt_sweep_monotone =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 12)
           (map (fun n -> float_of_int (1 + (n mod 997)) /. 100.) nat))
        (int_range 1 6) (int_range 1 3))
  in
  QCheck.Test.make ~name:"LPT sweep: more servers never hurt" ~count:500
    (QCheck.make gen)
    (fun (durations, servers, extra) ->
      let m_few =
        fst (Schedule.makespan ~policy:Schedule.Lpt ~servers durations)
      in
      let m_more =
        fst
          (Schedule.makespan ~policy:Schedule.Lpt ~servers:(servers + extra)
             durations)
      in
      m_more <= m_few +. 1e-9)

let test_parallel_map () =
  let xs = List.init 100 Fun.id in
  let ys = Parallel.map ~domains:4 (fun x -> x * x) xs in
  check Alcotest.(list int) "order preserved" (List.map (fun x -> x * x) xs) ys

let test_parallel_map_sizes () =
  let sq x = x * x in
  (* empty, singleton, odd, and far more items than domains *)
  List.iter
    (fun n ->
      let xs = List.init n Fun.id in
      check
        Alcotest.(list int)
        (Printf.sprintf "size %d preserved" n)
        (List.map sq xs)
        (Parallel.map ~domains:4 sq xs))
    [ 0; 1; 7; 1000 ];
  (* domains=1 degenerates to sequential execution on the caller *)
  let xs = List.init 33 Fun.id in
  check
    Alcotest.(list int)
    "domains=1 is sequential" (List.map sq xs)
    (Parallel.map ~domains:1 sq xs)

exception Boom of int

let test_parallel_map_exception () =
  let xs = List.init 64 Fun.id in
  (* a raise inside a worker propagates to the caller instead of
     tripping the join-time assert on a result hole *)
  (match Parallel.map ~domains:4 (fun x -> if x = 13 then raise (Boom x) else x) xs with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 13 -> ());
  (* every item failing: still exactly one exception, no hang *)
  (match Parallel.map ~domains:4 (fun _ -> raise Exit) xs with
  | _ -> Alcotest.fail "expected Exit to propagate"
  | exception Exit -> ());
  (* sequential degenerate case propagates too *)
  match Parallel.map ~domains:1 (fun _ -> raise Not_found) [ 1; 2 ] with
  | _ -> Alcotest.fail "expected Not_found to propagate"
  | exception Not_found -> ()

let domain_id () = (Domain.self () :> int)

(* [map ~domains:n] counts the caller as one of its n workers: at no
   moment do more than n distinct domains run items. *)
let test_parallel_map_domain_bound () =
  check tint "default: every recommended domain"
    (Domain.recommended_domain_count ())
    (Parallel.default_domains ());
  List.iter
    (fun n ->
      let lock = Mutex.create () in
      let running = Hashtbl.create 8 and seen = Hashtbl.create 8 in
      let most = ref 0 in
      let enter id =
        Mutex.protect lock (fun () ->
            Hashtbl.replace running id
              (1 + Option.value (Hashtbl.find_opt running id) ~default:0);
            Hashtbl.replace seen id ();
            most := max !most (Hashtbl.length running))
      and leave id =
        Mutex.protect lock (fun () ->
            match Hashtbl.find running id with
            | 1 -> Hashtbl.remove running id
            | k -> Hashtbl.replace running id (k - 1))
      in
      let _ =
        Parallel.map ~domains:n
          (fun x ->
            let id = domain_id () in
            enter id;
            Unix.sleepf 0.001;
            leave id;
            x)
          (List.init 40 Fun.id)
      in
      check tbool
        (Printf.sprintf "domains=%d: at most %d at once (saw %d)" n n !most)
        true (!most <= n);
      check tbool
        (Printf.sprintf "domains=%d: at most %d domains in all" n n)
        true
        (Hashtbl.length seen <= n))
    [ 1; 2; 3 ]

(* A map called from inside a worker runs on that worker's domain: it
   spawns no domain and opens no [parallel.domain] span. *)
let test_parallel_map_nested () =
  let tm = Hoyan_telemetry.Telemetry.create () in
  let outer =
    Parallel.map ~tm ~domains:2
      (fun _ ->
        let id = domain_id () in
        ( id,
          Parallel.map ~tm ~domains:4
            (fun _ -> domain_id ())
            (List.init 8 Fun.id) ))
      (List.init 6 Fun.id)
  in
  List.iter
    (fun (id, inner) ->
      check Alcotest.(list int) "inner items on the worker's domain"
        (List.init 8 (fun _ -> id))
        inner)
    outer;
  let spans =
    List.filter
      (fun (e : Hoyan_telemetry.Trace.event) ->
        e.Hoyan_telemetry.Trace.te_name = "parallel.domain")
      (Hoyan_telemetry.Trace.events tm.Hoyan_telemetry.Telemetry.trace)
  in
  check tint "only the outer map's worker spans" 2 (List.length spans);
  (* after the map the caller is no worker again: a fresh map's two items
     meet at a barrier, which they can only do on two domains *)
  let arrived = Atomic.make 0 in
  let meet _ =
    Atomic.incr arrived;
    let t0 = Unix.gettimeofday () in
    while Atomic.get arrived < 2 && Unix.gettimeofday () -. t0 < 5. do
      Domain.cpu_relax ()
    done;
    Atomic.get arrived >= 2
  in
  check Alcotest.(list bool) "a later map spawns again" [ true; true ]
    (Parallel.map ~domains:2 meet [ 0; 1 ])

(* property: the ordering heuristic's dependency test is sound — if a
   traffic subtask's range does not overlap a route subtask's range, no
   flow of the former can match any row the latter yields — over the
   run cut of random prefixes on one device with random (possibly
   nested) aggregates, which also keeps the planner's promises *)
let prop_dependency_soundness =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 20)
           (map2
              (fun ip len ->
                Prefix.make (Ip.V4 (ip land 0xffffffff)) (8 + (len mod 17)))
              nat nat))
        (list_size (int_range 0 3) (pair nat (int_range 1 8)))
        (list_size (int_range 1 20)
           (map (fun n -> Ip.V4 (n land 0xffffffff)) nat)))
  in
  QCheck.Test.make ~name:"range-overlap dependency test is sound" ~count:200
    (QCheck.make gen)
    (fun (prefixes, aggregates, dsts) ->
      let b = B.create () in
      B.add_device b ~name:"X" ~vendor:"vendorA" ~asn:65000
        ~router_id:(B.ip "10.255.0.1") ();
      List.iter
        (fun (i, d) ->
          let p = List.nth prefixes (i mod List.length prefixes) in
          B.add_aggregate b "X" ~summary_only:(d mod 2 = 0)
            (Prefix.make (Prefix.ip p) (max 1 (Prefix.len p - d))))
        aggregates;
      let model = B.build b in
      let routes =
        List.map (fun p -> Route.make ~device:"X" ~prefix:p ()) prefixes
      in
      let runs = Route_sim.runs ~order:Split.Ordered ~n:4 model routes in
      let rows = check_runs ~msg:"random prefixes" model routes runs in
      let flows =
        List.map
          (fun d -> Flow.make ~src:(Ip.V4 1) ~dst:d ~ingress:"X" ())
          dsts
      in
      let f_splits = Split.split_flows ~strategy:Split.Ordered ~subtasks:4 flows in
      List.for_all
        (fun (fs, frange) ->
          List.for_all2
            (fun (rn : Route_sim.run) rib ->
              Split.ranges_overlap frange rn.Route_sim.rn_range
              || (* no overlap: then no flow matches any row *)
              not
                (List.exists
                   (fun (f : Flow.t) ->
                     Rib.fold
                       (fun (r : Route.t) hit ->
                         hit || Prefix.mem f.Flow.dst r.Route.prefix)
                       rib false)
                   fs))
            runs rows)
        f_splits)

(* ------------------------------------------------------------------ *)
(* fault injection: chaos plans, the monitor loop, the outcome contract *)
(* ------------------------------------------------------------------ *)

let sorted_tbl tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

(* the failure-free reference run every chaos cell is compared against *)
let baseline =
  lazy
    (let g = Lazy.force scenario in
     let fw = Framework.create g.G.model in
     let rp =
       Framework.run_route_phase ~subtasks:10 fw
         ~input_routes:g.G.input_routes
     in
     let tp =
       Framework.run_traffic_phase ~subtasks:8 fw ~route_phase:rp
         ~flows:g.G.flows
     in
     (rp, tp))

(* the fault-injection matrix: fail_prob in {0, 0.2, 0.5} x every
   Faultplan mode (worker crashes, storage loss, mq drop/dup, worker
   stalls, and all of them mixed).  The outcome contract
   under any cell: the phase either completes with results identical to
   the failure-free run, or reports the exact set of permanently-failed
   subtasks — never a silently smaller merge. *)
let test_fault_matrix () =
  let g = Lazy.force scenario in
  let rp0, tp0 = Lazy.force baseline in
  let base_loads = sorted_tbl tp0.Framework.tp_link_load in
  List.iter
    (fun mode ->
      List.iter
        (fun prob ->
          let label =
            Printf.sprintf "%s@%.1f" (Faultplan.mode_to_string mode) prob
          in
          let chaos = Faultplan.plan ~seed:7 ~prob mode in
          let fw = Framework.create ~chaos ~max_attempts:4 g.G.model in
          let rp =
            Framework.run_route_phase ~subtasks:10 fw
              ~input_routes:g.G.input_routes
          in
          check tbool (label ^ ": route db settled") true
            (Db.all_settled fw.Framework.db);
          check tbool (label ^ ": complete iff no failures") true
            (rp.Framework.rp_complete = (rp.Framework.rp_failed = []));
          if rp.Framework.rp_complete then begin
            check tbool (label ^ ": RIB identical to failure-free run") true
              (Rib.equal rp0.Framework.rp_rib rp.Framework.rp_rib);
            let tp =
              Framework.run_traffic_phase ~subtasks:8 fw ~route_phase:rp
                ~flows:g.G.flows
            in
            check tbool (label ^ ": traffic db settled") true
              (Db.all_settled fw.Framework.db);
            check tbool (label ^ ": traffic complete iff no failures") true
              (tp.Framework.tp_complete = (tp.Framework.tp_failed = []));
            if tp.Framework.tp_complete then
              check tbool
                (label ^ ": link loads identical to failure-free run")
                true
                (base_loads = sorted_tbl tp.Framework.tp_link_load)
          end)
        Faultplan.matrix_probs)
    Faultplan.all_modes

(* satellite regression: a result object that keeps vanishing must
   surface in the phase outcome, not silently shrink the merge *)
let test_result_object_loss_reported () =
  let g = Lazy.force scenario in
  let chaos = Chaos.make ~lose_always:[ "route-001.rib" ] () in
  let fw = Framework.create ~chaos g.G.model in
  let rp =
    Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes
  in
  check tbool "phase reports incomplete" false rp.Framework.rp_complete;
  check tint "exactly the one victim failed" 1
    (List.length rp.Framework.rp_failed);
  let f = List.hd rp.Framework.rp_failed in
  check Alcotest.string "victim id" "route-001" f.Framework.sf_id;
  check Alcotest.string "reason is the missing result" "result object missing"
    f.Framework.sf_reason;
  check tint "retry budget honoured" fw.Framework.max_attempts
    f.Framework.sf_attempts;
  (* the rest of the phase is intact and settled *)
  check tbool "db settled" true (Db.all_settled fw.Framework.db)

(* satellite: a lost input object is a recoverable failure — the monitor
   re-uploads from the split the master retained and the subtask
   completes on the next attempt *)
let test_missing_input_reupload () =
  let g = Lazy.force scenario in
  let chaos = Chaos.make ~lose_first:[ "route-002.in" ] () in
  let fw = Framework.create ~chaos g.G.model in
  let rp =
    Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes
  in
  check tbool "phase completes after re-upload" true rp.Framework.rp_complete;
  check tbool "monitor re-uploaded the input" true
    (fw.Framework.stats.Framework.ms_reuploads >= 1);
  check tbool "subtask was retried" true
    (Db.attempts (Db.find_exn fw.Framework.db "route-002") > 1);
  let rp0, _ = Lazy.force baseline in
  check tbool "rib identical to failure-free run" true
    (Rib.equal rp0.Framework.rp_rib rp.Framework.rp_rib)

(* stalled workers never write the DB; the master reclaims their
   subtasks when the lease expires *)
let test_stall_lease_recovery () =
  let g = Lazy.force scenario in
  let chaos = Chaos.make ~stall_prob:0.4 ~seed:3 () in
  (* stall_prob 0.4 with a budget of 10: the chance of any of the ten
     subtasks exhausting it is ~0.1% — and the run is deterministic, so
     this seed is known to recover *)
  let fw = Framework.create ~chaos ~max_attempts:10 g.G.model in
  let rp =
    Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes
  in
  check tbool "leases actually expired" true
    (fw.Framework.stats.Framework.ms_lease_expired > 0);
  check tbool "phase recovered" true rp.Framework.rp_complete;
  let rp0, _ = Lazy.force baseline in
  check tbool "rib identical to failure-free run" true
    (Rib.equal rp0.Framework.rp_rib rp.Framework.rp_rib)

(* MQ loss costs a re-send but no attempt (the subtask never ran);
   duplication is absorbed by the worker-side delivery gate *)
let test_mq_drop_dup () =
  let g = Lazy.force scenario in
  let chaos = Chaos.make ~mq_drop_prob:0.3 ~mq_dup_prob:0.3 ~seed:5 () in
  let fw = Framework.create ~chaos g.G.model in
  let rp =
    Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes
  in
  let dropped = Mq.dropped fw.Framework.mq
  and duplicated = Mq.duplicated fw.Framework.mq in
  check tbool "some messages dropped or duplicated" true
    (dropped + duplicated > 0);
  check tbool "phase nevertheless completes" true rp.Framework.rp_complete;
  if dropped > 0 then
    check tbool "drops were re-sent by the monitor" true
      (rp.Framework.rp_resends > 0);
  if duplicated > 0 then
    check tbool "duplicate deliveries ignored as stale" true
      (fw.Framework.stats.Framework.ms_stale_msgs > 0);
  let rp0, _ = Lazy.force baseline in
  check tbool "rib identical to failure-free run" true
    (Rib.equal rp0.Framework.rp_rib rp.Framework.rp_rib)

(* chaos decisions are a pure function of (seed, site, key, seq): the
   same plan replays to the identical failure history *)
let test_chaos_determinism () =
  let g = Lazy.force scenario in
  let run () =
    let chaos = Faultplan.plan ~seed:99 ~prob:0.4 Faultplan.Mixed in
    let fw = Framework.create ~chaos ~max_attempts:4 g.G.model in
    let rp =
      Framework.run_route_phase ~subtasks:10 fw
        ~input_routes:g.G.input_routes
    in
    ( rp.Framework.rp_failed,
      rp.Framework.rp_resends,
      fw.Framework.stats.Framework.ms_lease_expired,
      fw.Framework.stats.Framework.ms_terminal,
      Mq.dropped fw.Framework.mq,
      Mq.duplicated fw.Framework.mq )
  in
  check tbool "identical replay under the same seed" true (run () = run ())

(* at crash probability 1.0 nothing can ever succeed: the monitor must still
   terminate, exhaust every budget, and report every subtask *)
let test_total_failure_terminates () =
  let g = Lazy.force scenario in
  let fw =
    Framework.create ~chaos:(Chaos.make ~seed:42 ~crash_prob:1.0 ()) g.G.model
  in
  let rp =
    Framework.run_route_phase ~subtasks:5 fw ~input_routes:g.G.input_routes
  in
  check tbool "phase reports incomplete" false rp.Framework.rp_complete;
  check tint "every subtask permanently failed"
    (List.length rp.Framework.rp_subtasks)
    (List.length rp.Framework.rp_failed);
  List.iter
    (fun (f : Framework.subtask_failure) ->
      check tint "budget honoured" fw.Framework.max_attempts f.Framework.sf_attempts)
    rp.Framework.rp_failed

(* satellite: the aggregated EC counters come from the simulators'
   per-subtask results, not from input-list lengths or subtask counts *)
let test_ec_counts () =
  let g = Lazy.force scenario in
  let fw = Framework.create g.G.model in
  let rp =
    Framework.run_route_phase ~subtasks:10 ~use_ecs:false fw
      ~input_routes:g.G.input_routes
  in
  (* with EC compression off, each input is its own class: the sum over
     subtasks must equal the total input count exactly *)
  check tint "ECs off: rp_ec_inputs = total inputs"
    (List.length g.G.input_routes)
    rp.Framework.rp_ec_inputs;
  let tp =
    Framework.run_traffic_phase ~subtasks:8 ~use_ecs:false fw ~route_phase:rp
      ~flows:g.G.flows
  in
  check tint "ECs off: tp_ec_count = total flows" (List.length g.G.flows)
    tp.Framework.tp_ec_count;
  (* with ECs on, compression can only reduce the class count *)
  let fw2 = Framework.create g.G.model in
  let rp2 =
    Framework.run_route_phase ~subtasks:10 fw2 ~input_routes:g.G.input_routes
  in
  check tbool "ECs on: 0 < classes <= inputs" true
    (rp2.Framework.rp_ec_inputs > 0
    && rp2.Framework.rp_ec_inputs <= List.length g.G.input_routes)

(* the verification pipeline refuses intent verdicts over partial
   distributed results (and can never report PASS on them) *)
let test_verify_partial_refusal () =
  let g = Lazy.force scenario in
  let base =
    Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
      ~monitored_flows:g.G.flows
  in
  let rq =
    {
      Verify_request.rq_name = "chaos-partial";
      rq_plan = Cp.make "test" ~commands:[];
      rq_intents = [ Intents.Route_change "PRE = POST" ];
    }
  in
  let dist ?(chaos = Chaos.none) on_partial =
    Verify_request.Simulate
      (Verify_request.Distributed { subtasks = 10; chaos; on_partial })
  in
  let chaos = Chaos.make ~lose_always:[ "route-001.rib" ] () in
  let res = Verify_request.run ~stage:(dist ~chaos `Refuse) base rq in
  check tbool "partial flagged" true (Verify_request.partial res);
  check tbool "partial is never ok" false res.Verify_request.vr_ok;
  (match res.Verify_request.vr_route with
  | Verify_request.Merged c ->
      check tint "one subtask missing"
        (c.Verify_request.cov_total - 1)
        c.Verify_request.cov_merged;
      check tbool "the victim is named" true
        (List.mem_assoc "route-001" c.Verify_request.cov_failed)
  | _ -> Alcotest.fail "expected coverage on a distributed run");
  (* default policy: verdicts over the incomplete RIB are withheld *)
  check tint "no simulated violations under refusal" 0
    (List.length res.Verify_request.vr_violations);
  (* graceful degradation verifies anyway, but stays flagged and failed *)
  let res2 = Verify_request.run ~stage:(dist ~chaos `Degrade) base rq in
  check tbool "degrade: still partial, still not ok" true
    (Verify_request.partial res2 && not res2.Verify_request.vr_ok);
  (* and a chaos-free distributed run is complete and passes *)
  let res3 = Verify_request.run ~stage:(dist `Refuse) base rq in
  check tbool "no chaos: complete" false (Verify_request.partial res3);
  (match res3.Verify_request.vr_route with
  | Verify_request.Merged c ->
      check tint "full coverage" c.Verify_request.cov_total
        c.Verify_request.cov_merged
  | _ -> Alcotest.fail "expected coverage on a distributed run");
  check tbool "no chaos: ok" true res3.Verify_request.vr_ok

let suite =
  [
    ("split routes (ordered)", `Quick, test_split_routes_ordered);
    ("split flows", `Quick, test_split_flows);
    ("distributed = direct", `Slow, test_distributed_equals_direct);
    ("traffic phase + ordering heuristic", `Slow, test_traffic_phase_and_dependencies);
    ("random split loads all", `Slow, test_random_split_loads_everything);
    ("failure injection + retry", `Slow, test_failure_retry);
    ("fault-injection matrix", `Slow, test_fault_matrix);
    ("result-object loss is reported", `Slow, test_result_object_loss_reported);
    ("missing input is re-uploaded", `Slow, test_missing_input_reupload);
    ("stall recovery via lease expiry", `Slow, test_stall_lease_recovery);
    ("mq drop/dup recovery", `Slow, test_mq_drop_dup);
    ("chaos plans replay deterministically", `Slow, test_chaos_determinism);
    ("total failure still terminates", `Slow, test_total_failure_terminates);
    ("aggregated EC counts are real", `Slow, test_ec_counts);
    ("verify refuses partial results", `Slow, test_verify_partial_refusal);
    ("schedule makespan", `Quick, test_schedule_makespan);
    ("schedule LPT vs FIFO", `Quick, test_schedule_lpt);
    ("schedule edge cases", `Quick, test_schedule_edge_cases);
    ("parallel map", `Quick, test_parallel_map);
    ("parallel map sizes + domains=1", `Quick, test_parallel_map_sizes);
    ("parallel map exception propagation", `Quick, test_parallel_map_exception);
    ("parallel map: at most n domains at once", `Quick,
      test_parallel_map_domain_bound);
    ("parallel map: nested map stays on its worker", `Quick,
      test_parallel_map_nested);
    qtest prop_dependency_soundness;
    qtest prop_executors_on_generated_aggregates;
    qtest prop_lpt_sweep_monotone;
  ]
