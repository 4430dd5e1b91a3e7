(* Ablations of the design choices DESIGN.md calls out: EC compression on
   route and flow inputs, split strategy / dependency mode, scheduler
   policy and subtask count. *)

open B_common
module G = Hoyan_workload.Generator
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Framework = Hoyan_dist.Framework
module Schedule = Hoyan_dist.Schedule
module Kfailure = Hoyan_core.Kfailure

let route_ecs () =
  header "Ablation: route-input equivalence classes (§3.1)";
  let g = Lazy.force wan in
  let with_ec, t_ec =
    time (fun () -> Route_sim.run g.G.model ~input_routes:g.G.input_routes ())
  in
  let _without, t_plain =
    time (fun () ->
        Route_sim.run ~use_ecs:false g.G.model ~input_routes:g.G.input_routes ())
  in
  row "input routes: %d; simulated with ECs: %.0f (%.2fx compression)"
    with_ec.Route_sim.input_count
    (float_of_int with_ec.Route_sim.input_count /. with_ec.Route_sim.compression)
    with_ec.Route_sim.compression;
  row "route simulation: with ECs %s, without %s (%.1fx faster)"
    (seconds t_ec) (seconds t_plain) (t_plain /. t_ec);
  row "(paper: ECs reduce input routes ~4x on the WAN)"

let flow_ecs () =
  header "Ablation: flow equivalence classes";
  let g = Lazy.force wan in
  let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
  let ec, t_ec =
    time (fun () -> Traffic_sim.run g.G.model ~rib ~flows:g.G.flows ())
  in
  let _plain, t_plain =
    time (fun () ->
        Traffic_sim.run ~use_ecs:false g.G.model ~rib ~flows:g.G.flows ())
  in
  row "flow records: %d -> %d ECs (%.1fx; each record stands for %d flows, \
       so the population compression is %.0fx)"
    (List.length g.G.flows) ec.Traffic_sim.ec_count ec.Traffic_sim.compression
    g.G.params.G.g_flow_population
    (float_of_int ec.Traffic_sim.flow_count
    /. float_of_int (max 1 ec.Traffic_sim.ec_count));
  row "traffic simulation: with ECs %s, without %s (%.1fx faster)"
    (seconds t_ec) (seconds t_plain) (t_plain /. t_ec);
  row "(paper: flow ECs reduce simulated flows by two orders of magnitude)"

let scheduler_policy () =
  header "Ablation: MQ (FIFO) vs longest-processing-time scheduling";
  let g = Lazy.force wan in
  let fw = Framework.create g.G.model in
  let rp = Framework.run_route_phase ~subtasks:100 fw ~input_routes:g.G.input_routes in
  let times = Framework.effective_times fw rp.Framework.rp_subtasks in
  row "%-8s %-12s %-12s" "servers" "FIFO (MQ)" "LPT";
  List.iter
    (fun s ->
      let fifo, _ = Schedule.makespan ~policy:Schedule.Fifo ~servers:s times in
      let lpt, _ = Schedule.makespan ~policy:Schedule.Lpt ~servers:s times in
      row "%-8d %-12s %-12s" s (seconds fifo) (seconds lpt))
    [ 2; 4; 8; 10 ];
  row
    "(the paper's future work: balance subtasks by input-route \
     characteristics; LPT shows the head-room)"

let subtask_counts () =
  header "Ablation: number of route subtasks (paper uses 100)";
  let g = Lazy.force wan in
  row "%-10s %-12s %-14s" "subtasks" "10 servers" "(per-subtask p99)";
  List.iter
    (fun n ->
      let fw = Framework.create g.G.model in
      let rp = Framework.run_route_phase ~subtasks:n fw ~input_routes:g.G.input_routes in
      let times = Framework.effective_times fw rp.Framework.rp_subtasks in
      let mk, _ = Schedule.makespan ~servers:10 times in
      row "%-10d %-12s %10.2fs" n (seconds mk) (quantile 0.99 times))
    [ 10; 25; 50; 100; 200 ]

let kfailure () =
  header "Fault-tolerance checking (§6.2): k-failure sweep";
  let g = Lazy.force small in
  (* does the default route survive any single link failure? *)
  let prop =
    Kfailure.prefix_survives
      ~prefix:(Hoyan_net.Prefix.of_string_exn "0.0.0.0/0")
      ~devices:(Hoyan_net.Topology.device_names g.G.model.Hoyan_sim.Model.topo)
  in
  List.iter
    (fun k ->
      let res, dt =
        time (fun () ->
            Kfailure.check ~max_scenarios:60 g.G.model
              ~input_routes:g.G.input_routes ~flows:[] ~k prop)
      in
      row "k=%d: %d scenarios checked, %d violation(s) found (%s)" k
        res.Kfailure.kr_checked
        (List.length res.Kfailure.kr_violations)
        (seconds dt);
      List.iteri
        (fun i (s : Kfailure.scenario_result) ->
          if i < 3 then
            row "  e.g. %s: %s"
              (String.concat " + "
                 (List.map Kfailure.failure_to_string s.Kfailure.sr_failures))
              (Option.value s.Kfailure.sr_violation ~default:""))
        res.Kfailure.kr_violations)
    [ 1; 2 ];
  row
    "(the paper found ~5 fault-tolerance problems on the live WAN through \
     this kind of checking)"

let all () =
  route_ecs ();
  flow_ecs ();
  scheduler_policy ();
  subtask_counts ();
  kfailure ()
