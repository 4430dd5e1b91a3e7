(* Scalability experiments: Table 1, Figure 1, Figure 5(a)-(d).

   The compute time of every subtask is really measured; multi-server
   end-to-end times replay those durations through the MQ scheduler
   (DESIGN.md §2 explains why this substitution preserves the paper's
   curves).  Absolute numbers are laptop-scale; the shapes — 5x speedup
   at 10 servers, diminishing returns from subtask skew, the ordering
   heuristic's I/O reduction, centralized OOM at WAN+DCN scale — are the
   reproduction targets. *)

open B_common
module G = Hoyan_workload.Generator
module Centralized = Hoyan_sim.Centralized
module Framework = Hoyan_dist.Framework
module Split = Hoyan_dist.Split
module Flow = Hoyan_net.Flow

let server_counts = [ 1; 2; 4; 6; 8; 10 ]

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: scale requirements (paper) vs generated workloads (ours)";
  row "%-14s %-12s %-12s %-12s" "" "# routers" "# prefixes" "# flows";
  row "%-14s %-12s %-12s %-12s" "paper 2017" "hundreds" "O(10^4)" "n.a.";
  row "%-14s %-12s %-12s %-12s" "paper 2024" "> 2000" "O(10^6)" "O(10^9)";
  let show name (g : G.t) =
    row "%-14s %-12d %-12d %-12d (%d records x %d population)" name
      (G.device_count g) g.G.params.G.g_prefixes
      (List.fold_left (fun n (f : Flow.t) -> n + f.Flow.population) 0 g.G.flows)
      (List.length g.G.flows) g.G.params.G.g_flow_population
  in
  show "ours WAN" (Lazy.force wan);
  show "ours WAN+DCN" (Lazy.force wan_dcn);
  row "(scaled ~1/10 per DESIGN.md; run-time requirement: minutes, see Fig 5)"

(* ------------------------------------------------------------------ *)

let figure1 () =
  header "Figure 1: the original centralized simulation";
  let g = Lazy.force wan in
  (* memory cap calibrated so the WAN fits comfortably while WAN+DCN
     completes only a fraction before exhausting memory, with the tail
     cut off by the run deadline (mirroring the paper's 30% / 40% / 30%
     split; the paper's server had 791 GB against a production-scale
     state, we scale both down together) *)
  let mem_cap = 420 * 1024 * 1024 in
  sub "WAN: centralized simulation time vs fraction of prefixes";
  row "%-22s %-10s %-12s %-8s" "prefixes" "time" "peak-mem" "status";
  List.iter
    (fun frac ->
      let n = List.length g.G.input_routes * frac / 100 in
      let inputs = List.filteri (fun i _ -> i < n) g.G.input_routes in
      let o = Centralized.run ~mem_cap_bytes:mem_cap g.G.model ~input_routes:inputs () in
      row "%3d%% (%5d routes)    %-10s %6.0f MB    %s" frac n
        (seconds o.Centralized.c_time_s)
        (float_of_int o.Centralized.c_peak_bytes /. 1048576.)
        (if o.Centralized.c_oom_prefixes = 0 then "ok" else "OOM"))
    [ 20; 40; 60; 80; 100 ];
  sub "WAN+DCN: the centralized design runs out of memory";
  let gd = Lazy.force wan_dcn in
  let o =
    Centralized.run ~mem_cap_bytes:mem_cap ~time_budget_s:55. gd.G.model
      ~input_routes:gd.G.input_routes ()
  in
  row "completed: %.0f%% of prefixes   OOM-failed: %.0f%%   not attempted: %.0f%%"
    (100. *. Centralized.completed_frac o)
    (100. *. Centralized.oom_frac o)
    (100.
    *. float_of_int o.Centralized.c_skipped_prefixes
    /. float_of_int (max 1 o.Centralized.c_total_prefixes));
  row "(paper: simulated 30%%, failed 40%% due to memory exhaustion)"

(* ------------------------------------------------------------------ *)

type dist_run = {
  dr_fw : Framework.t;
  dr_route : Framework.route_phase;
}

let route_phase_of (g : G.t) ~subtasks : dist_run =
  let fw = Framework.create g.G.model in
  let rp = Framework.run_route_phase ~subtasks fw ~input_routes:g.G.input_routes in
  { dr_fw = fw; dr_route = rp }

let wan_run = lazy (route_phase_of (Lazy.force wan) ~subtasks:100)
let wan_dcn_run = lazy (route_phase_of (Lazy.force wan_dcn) ~subtasks:100)

let figure5a () =
  header "Figure 5(a): distributed route simulation time vs #servers";
  let print_curve label (r : dist_run) =
    sub label;
    row "%-8s %-10s" "servers" "time";
    List.iter
      (fun s ->
        let t =
          Framework.phase_time r.dr_fw ~servers:s r.dr_route.Framework.rp_subtasks
        in
        row "%-8d %-10s" s (seconds t))
      server_counts;
    let t1 = Framework.phase_time r.dr_fw ~servers:1 r.dr_route.Framework.rp_subtasks in
    let t10 = Framework.phase_time r.dr_fw ~servers:10 r.dr_route.Framework.rp_subtasks in
    row "speedup at 10 servers: %.1fx (paper: ~5x vs the centralized run)"
      (t1 /. t10)
  in
  print_curve "WAN (100 subtasks)" (Lazy.force wan_run);
  print_curve "WAN+DCN (100 subtasks)" (Lazy.force wan_dcn_run)

let figure5b () =
  header "Figure 5(b): distributed traffic simulation; ordering vs baseline";
  let g = Lazy.force wan in
  let subtasks = if !quick then 32 else 128 in
  let run dep_mode =
    let r = route_phase_of g ~subtasks:100 in
    let tp =
      Framework.run_traffic_phase ~subtasks ~dep_mode r.dr_fw
        ~route_phase:r.dr_route ~flows:g.G.flows
    in
    (r.dr_fw, tp)
  in
  let fw_ord, ordered = run Framework.Deps_ordered in
  let fw_all, baseline = run Framework.Deps_all in
  row "%-8s %-14s %-14s" "servers" "ordering" "baseline(all)";
  List.iter
    (fun s ->
      let t_ord = Framework.phase_time fw_ord ~servers:s ordered.Framework.tp_subtasks in
      let t_all = Framework.phase_time fw_all ~servers:s baseline.Framework.tp_subtasks in
      row "%-8d %-14s %-14s" s (seconds t_ord) (seconds t_all))
    server_counts;
  let t_ord = Framework.phase_time fw_ord ~servers:10 ordered.Framework.tp_subtasks in
  let t_all = Framework.phase_time fw_all ~servers:10 baseline.Framework.tp_subtasks in
  row "baseline is +%.0f%% at 10 servers (paper: +52%%)"
    (100. *. ((t_all -. t_ord) /. t_ord));
  let t1 = Framework.phase_time fw_ord ~servers:1 ordered.Framework.tp_subtasks in
  row "ordering speedup 1->10 servers: %.1fx (paper: 4x)" (t1 /. t_ord)

let figure5c () =
  header "Figure 5(c): CDF of route-simulation subtask run time";
  let print_one label (r : dist_run) =
    let times =
      Framework.effective_times r.dr_fw r.dr_route.Framework.rp_subtasks
    in
    print_cdf (label ^ ": subtask wall time") times ~unit:"s";
    let mn = quantile 0.0 times and mx = quantile 1.0 times in
    row "longest/shortest subtask: %.0fx (the skew behind the diminishing returns)"
      (mx /. Float.max mn 1e-9)
  in
  print_one "WAN" (Lazy.force wan_run);
  print_one "WAN+DCN" (Lazy.force wan_dcn_run);
  row
    "(paper: shortest ~4s, longest >2min; ISP routes propagate a few hops \
     while DC routes cross the whole network)"

let figure5d () =
  header "Figure 5(d): loaded RIB files per traffic subtask";
  let g = Lazy.force wan in
  let subtasks = if !quick then 32 else 128 in
  let loaded strategy =
    let fw = Framework.create g.G.model in
    let rp =
      Framework.run_route_phase ~strategy ~subtasks:100 fw
        ~input_routes:g.G.input_routes
    in
    let tp =
      Framework.run_traffic_phase ~strategy ~subtasks
        ~dep_mode:Framework.Deps_ordered fw ~route_phase:rp ~flows:g.G.flows
    in
    List.map snd tp.Framework.tp_loaded_fracs
  in
  let ordered = loaded Split.Ordered in
  let random = loaded (Split.Random 99) in
  print_cdf "ordering heuristic: fraction of RIB files loaded" ordered ~unit:"";
  print_cdf "random partitioning: fraction of RIB files loaded" random ~unit:"";
  let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  row "mean loaded fraction: ordering %.2f vs random %.2f" (avg ordered)
    (avg random);
  row "(paper: >80%% of ordered subtasks load <= 1/3 of RIB files; random loads all)"
