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
  rib : Route.t list; (* the global RIB: BGP + local-table routes *)
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
        ("rib_rows", Journal.I (List.length r.rib));
      ]
  end

(** Run the route simulation.  [use_ecs=false] disables EC compression
    (ablation). *)
let run ?tm ?(use_ecs = true) ?(include_locals = true) ?(originate = true)
    ?only (model : Model.t) ~(input_routes : Route.t list) () : result =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let keep =
    match only with None -> fun (_ : Prefix.t) -> true | Some f -> f
  in
  let all_inputs =
    match only with
    | None -> input_routes
    | Some _ ->
        List.filter (fun (r : Route.t) -> keep r.Route.prefix) input_routes
  in
  let input_count = List.length all_inputs in
  let local_rows () =
    Smap.fold
      (fun _ rs acc ->
        List.fold_left
          (fun acc (r : Route.t) ->
            if keep r.Route.prefix then r :: acc else acc)
          acc rs)
      model.Model.local_tables []
  in
  if not use_ecs then begin
    let rib, stats =
      Bgp.run ~tm ~originate ?only model.Model.net
        { Bgp.in_routes = all_inputs; in_local_tables = model.Model.local_tables }
    in
    let locals = if not include_locals then [] else local_rows () in
    let res =
      {
        rib = rib @ locals;
        bgp_stats = stats;
        input_count;
        ec_count = input_count;
        compression = 1.0;
      }
    in
    ev_result tm res;
    res
  end
  else begin
    let sig_ctx =
      Telemetry.with_span tm "route.ec_group" (fun () ->
          Ec.signature_ctx model.Model.configs)
    in
    let groups = Ec.group_routes sig_ctx all_inputs in
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
    let locals = if not include_locals then [] else local_rows () in
    let res =
      {
        rib = rib @ expanded @ locals;
        bgp_stats = stats;
        input_count;
        ec_count = List.length groups;
        compression = Ec.compression groups;
      }
    in
    ev_result tm res;
    res
  end
