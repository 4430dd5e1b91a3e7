(** Daily configuration auditing (§6.2).

    Each day Hoyan simulates the live configurations and executes dozens
    of auditing tasks on the simulated RIBs and traffic loads, each
    defining a high-level invariant the network should hold (e.g., the
    prefixes on all routers of a router group should be the same). *)

open Hoyan_net
module Model = Hoyan_sim.Model
module Traffic_sim = Hoyan_sim.Traffic_sim

type finding = { af_task : string; af_detail : string }

type task = {
  t_name : string;
  t_run :
    model:Model.t ->
    rib:Route.t list ->
    traffic:Traffic_sim.result Lazy.t ->
    finding list;
}

let finding task detail = { af_task = task; af_detail = detail }

(** Routers of a group must carry the same set of prefixes. *)
let group_consistency ~name ~(group : string list) : task =
  {
    t_name = Printf.sprintf "group-consistency(%s)" name;
    t_run =
      (fun ~model:_ ~rib ~traffic:_ ->
        let prefixes_of dev =
          List.filter_map
            (fun (r : Route.t) ->
              if String.equal r.Route.device dev && r.Route.proto = Route.Bgp
              then Some r.Route.prefix
              else None)
            rib
          |> List.sort_uniq Prefix.compare
        in
        match group with
        | [] -> []
        | first :: rest ->
            let ref_set = prefixes_of first in
            List.filter_map
              (fun dev ->
                let s = prefixes_of dev in
                if List.equal Prefix.equal s ref_set then None
                else
                  Some
                    (finding
                       (Printf.sprintf "group-consistency(%s)" name)
                       (Printf.sprintf
                          "%s carries %d prefixes but %s carries %d" dev
                          (List.length s) first (List.length ref_set))))
              rest);
  }

(** No route for any of the given private/internal prefixes may appear on
    the listed devices (e.g. ISP-facing borders). *)
let no_leak ~name ~(prefixes : Prefix.t list) ~(devices : string list) : task =
  {
    t_name = Printf.sprintf "no-leak(%s)" name;
    t_run =
      (fun ~model:_ ~rib ~traffic:_ ->
        List.filter_map
          (fun (r : Route.t) ->
            if
              List.exists (String.equal r.Route.device) devices
              && List.exists (fun p -> Prefix.subsumes p r.Route.prefix) prefixes
            then
              Some
                (finding
                   (Printf.sprintf "no-leak(%s)" name)
                   (Printf.sprintf "leaked route: %s" (Route.to_string r)))
            else None)
          rib);
  }

(** Every router must hold a (default or covering) route for the given
    critical prefix. *)
let critical_prefix_everywhere ~(prefix : Prefix.t) : task =
  {
    t_name =
      Printf.sprintf "critical-prefix(%s)" (Prefix.to_string prefix);
    t_run =
      (fun ~model ~rib ~traffic:_ ->
        let devices = Topology.device_names model.Model.topo in
        List.filter_map
          (fun dev ->
            let covered =
              List.exists
                (fun (r : Route.t) ->
                  String.equal r.Route.device dev
                  && Prefix.subsumes r.Route.prefix prefix)
                rib
            in
            if covered then None
            else
              Some
                (finding
                   (Printf.sprintf "critical-prefix(%s)"
                      (Prefix.to_string prefix))
                   (Printf.sprintf "%s has no covering route" dev)))
          devices);
  }

(** No link above the utilization bound. *)
let utilization_bound ~(max_util : float) : task =
  {
    t_name = Printf.sprintf "utilization<=%.0f%%" (100. *. max_util);
    t_run =
      (fun ~model ~rib:_ ~traffic ->
        Traffic_sim.utilizations model (Lazy.force traffic)
        |> List.filter_map (fun ((a, b), load, util) ->
               if util > max_util then
                 Some
                   (finding
                      (Printf.sprintf "utilization<=%.0f%%" (100. *. max_util))
                      (Printf.sprintf "%s->%s at %.0f%% (%.0f bps)" a b
                         (100. *. util) load))
               else None));
  }

(** Inconsistent route-policy sets across devices claiming the same role
    (a frequent live-config problem the paper mentions). *)
let policy_consistency ~name ~(group : string list) : task =
  {
    t_name = Printf.sprintf "policy-consistency(%s)" name;
    t_run =
      (fun ~model ~rib:_ ~traffic:_ ->
        let policy_names dev =
          match Model.config model dev with
          | None -> []
          | Some cfg ->
              Hoyan_config.Types.Smap.bindings cfg.Hoyan_config.Types.dc_policies
              |> List.map fst
        in
        match group with
        | [] -> []
        | first :: rest ->
            let ref_set = policy_names first in
            List.filter_map
              (fun dev ->
                if List.equal String.equal (policy_names dev) ref_set then None
                else
                  Some
                    (finding
                       (Printf.sprintf "policy-consistency(%s)" name)
                       (Printf.sprintf "%s and %s define different policies"
                          dev first)))
              rest);
  }

(** Run all audit tasks over a simulated day. *)
let run_all (tasks : task list) ~(model : Model.t) ~(rib : Rib.t)
    ~(traffic : Traffic_sim.result Lazy.t) : finding list =
  let rib = Rib.to_list rib in
  List.concat_map (fun t -> t.t_run ~model ~rib ~traffic) tasks
