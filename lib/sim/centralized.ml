(** The original centralized simulation runner (Figure 1 baseline).

    Original Hoyan ran on a single server with parallelization; at
    WAN+DCN scale it could only simulate 30% of prefixes and failed 40%
    due to memory exhaustion.  This runner reproduces that behaviour with
    a byte-accounted memory model: prefixes are simulated in chunks and a
    chunk fails ("OOM") once the estimated resident footprint exceeds the
    configured cap, after which the run aborts for the remaining
    prefixes. *)

open Hoyan_net

(* Rough per-object footprint estimates (bytes).  The absolute values do
   not matter for the reproduction; the *growth* with prefix count does. *)
let bytes_per_rib_row = 320
let bytes_per_input_route = 400
let bytes_per_adj_entry = 96

type outcome = {
  c_time_s : float; (* wall-clock simulation time *)
  c_total_prefixes : int;
  c_simulated_prefixes : int;
  c_oom_prefixes : int;
  c_skipped_prefixes : int; (* not attempted after the abort *)
  c_peak_bytes : int;
  c_rib : Rib.t; (* the local tables and the rows of the completed chunks *)
}

let completed_frac o =
  if o.c_total_prefixes = 0 then 1.0
  else float_of_int o.c_simulated_prefixes /. float_of_int o.c_total_prefixes

let oom_frac o =
  if o.c_total_prefixes = 0 then 0.0
  else float_of_int o.c_oom_prefixes /. float_of_int o.c_total_prefixes

(** Run the centralized simulation with a memory cap.

    [mem_cap_bytes] models the server's RAM budget for simulation state
    (the paper's server had 791 GB; scale the cap with the scale of the
    workload).  The resident estimate is the cumulative RIB size: the
    centralized design holds *all* routes of *all* routers in one address
    space, which is exactly what broke at WAN+DCN scale.  The chunks are
    the planner's runs ({!Route_sim.runs}): each simulates whole shard
    keys and originates their routes; the local tables are loaded once,
    with the inputs. *)
let run ?(chunks = 50) ?(time_budget_s = infinity) ~(mem_cap_bytes : int)
    (model : Model.t) ~(input_routes : Route.t list) () : outcome =
  let t0 = Unix.gettimeofday () in
  let runs =
    Route_sim.runs ~order:Route_sim.Ordered ~n:chunks model input_routes
  in
  let prefixes_of (run : Route_sim.run) =
    List.map (fun (r : Route.t) -> r.Route.prefix) run.Route_sim.rn_routes
    |> List.sort_uniq Prefix.compare |> List.length
  in
  let total_prefixes = List.fold_left (fun n c -> n + prefixes_of c) 0 runs in
  (* All inputs and local tables are loaded up front in the centralized
     design. *)
  let locals = Model.local_rib model in
  let persistent =
    ref
      ((List.length input_routes * bytes_per_input_route)
      + (Rib.length locals * bytes_per_rib_row))
  in
  let peak = ref !persistent in
  let simulated = ref 0 and oom = ref 0 and skipped = ref 0 in
  let rib = ref [ locals ] in
  List.iter
    (fun (run : Route_sim.run) ->
      let chunk_prefixes = prefixes_of run in
      if Unix.gettimeofday () -. t0 > time_budget_s then
        (* the run deadline passed: the remaining prefixes never complete *)
        skipped := !skipped + chunk_prefixes
      else begin
        let res =
          Route_sim.run ~include_locals:false
            ~only:(Route_sim.owns model run.Route_sim.rn_keys)
            ~domains:1 model ~input_routes:run.Route_sim.rn_routes ()
        in
        let rows = Rib.length res.Route_sim.rib in
        let adj = res.Route_sim.bgp_stats.Hoyan_proto.Bgp.st_messages in
        let transient =
          (rows * bytes_per_rib_row) + (adj * bytes_per_adj_entry)
        in
        peak := max !peak (!persistent + transient);
        if !persistent + transient > mem_cap_bytes then
          (* the allocation attempt fails; the transient state is
             reclaimed, so later (smaller) chunks may still succeed *)
          oom := !oom + chunk_prefixes
        else begin
          simulated := !simulated + chunk_prefixes;
          persistent := !persistent + (rows * bytes_per_rib_row);
          rib := res.Route_sim.rib :: !rib
        end
      end)
    runs;
  {
    c_time_s = Unix.gettimeofday () -. t0;
    c_total_prefixes = total_prefixes;
    c_simulated_prefixes = !simulated;
    c_oom_prefixes = !oom;
    c_skipped_prefixes = !skipped;
    c_peak_bytes = !peak;
    c_rib = Rib.union !rib;
  }
