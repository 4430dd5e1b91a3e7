(** Route simulation: input routes -> all routers' RIBs.

    Wraps the BGP fixpoint engine with the equivalence-class compression
    of §3.1: one representative per EC is simulated and the resulting RIB
    rows are replicated for the other members (same rows, member's
    prefix).  Aggregate-prefix rows are never expanded (EC condition (2)
    guarantees all members trigger the same aggregates, so the aggregate
    rows are shared) — they are emitted once. *)

open Hoyan_net
module Smap = Map.Make (String)
module Bgp = Hoyan_proto.Bgp
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

type result = {
  rib : Rib.t; (* the global RIB: BGP + local-table routes *)
  bgp_stats : Bgp.stats;
  input_count : int;
  ec_count : int;
  compression : float;
}

(** Rows produced for the representative's prefix, re-keyed to a member
    prefix of the same class. *)
let expand_rows (rows : Route.t list) (member : Prefix.t) : Route.t list =
  List.map (fun (r : Route.t) -> { r with Route.prefix = member }) rows

let ev_result (tm : Telemetry.t) (r : result) =
  if Telemetry.enabled tm then begin
    Telemetry.count tm "hoyan_route_fixpoint_rounds_total"
      r.bgp_stats.Bgp.st_rounds;
    Telemetry.observe tm ~labels:[ ("phase", "route") ]
      "hoyan_ec_compression_ratio" r.compression;
    Telemetry.event tm "route_sim.done"
      [
        ("inputs", Journal.I r.input_count);
        ("ecs", Journal.I r.ec_count);
        ("compression", Journal.F r.compression);
        ("rounds", Journal.I r.bgp_stats.Bgp.st_rounds);
        ("messages", Journal.I r.bgp_stats.Bgp.st_messages);
        ("rib_rows", Journal.I (Rib.length r.rib));
      ]
  end

(** Run the route simulation.  [use_ecs=false] disables EC compression
    (ablation). *)
let run ?tm ?(use_ecs = true) ?(include_locals = true) ?(originate = true)
    ?only (model : Model.t) ~(input_routes : Route.t list) () : result =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let keep (r : Route.t) =
    match only with None -> true | Some f -> f r.Route.prefix
  in
  let all_inputs =
    match only with None -> input_routes | Some _ -> List.filter keep input_routes
  in
  let input_count = List.length all_inputs in
  let rows, bgp_stats, ec_count, compression =
    if not use_ecs then
      let rib, stats =
        Bgp.run ~tm ~originate ?only model.Model.net
          { Bgp.in_routes = all_inputs; in_local_tables = model.Model.local_tables }
      in
      (rib, stats, input_count, 1.0)
    else begin
      let groups =
        Telemetry.with_span tm "route.ec_group" (fun () ->
            Ec.group_routes (Ec.signature_ctx model.Model.configs) all_inputs)
      in
      let reps = Ec.simulated_routes groups in
      let rib, stats =
        Telemetry.with_span tm "route.fixpoint" (fun () ->
            Bgp.run ~tm ~originate ?only model.Model.net
              { Bgp.in_routes = reps; in_local_tables = model.Model.local_tables })
      in
      (* index resulting rows by prefix for expansion *)
      let rows_by_prefix = Hashtbl.create 1024 in
      List.iter
        (fun (r : Route.t) ->
          let existing =
            Option.value (Hashtbl.find_opt rows_by_prefix r.Route.prefix)
              ~default:[]
          in
          Hashtbl.replace rows_by_prefix r.Route.prefix (r :: existing))
        rib;
      let expanded =
        List.concat_map
          (fun (g : Ec.group) ->
            let rep_rows =
              Option.value (Hashtbl.find_opt rows_by_prefix g.Ec.rep_prefix)
                ~default:[]
            in
            List.concat_map
              (fun member ->
                if Prefix.equal member g.Ec.rep_prefix then []
                else expand_rows rep_rows member)
              g.Ec.member_prefixes)
          groups
      in
      (rib @ expanded, stats, List.length groups, Ec.compression groups)
    end
  in
  let locals =
    if not include_locals then []
    else
      Smap.fold
        (fun _ rs acc -> List.filter keep rs @ acc)
        model.Model.local_tables []
  in
  (* the one canonicalisation: fixpoint rows come in Hashtbl order; the
     copy makes the many whole-RIB RCL scans walk memory sequentially *)
  let res =
    { rib = Rib.copy (Rib.of_routes (rows @ locals)); bgp_stats; input_count;
      ec_count; compression }
  in
  ev_result tm res;
  res
