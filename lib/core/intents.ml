(** The change-intent layer (Table 2).

    Hoyan distinguishes three fundamentally different intent abstractions
    (§1): {e route change intents} are written in RCL and evaluated over
    the base/updated global RIBs; {e flow path change intents} constrain
    how forwarding paths move; {e traffic load change intents} are simple
    thresholds over link loads.  Plain reachability (control- and
    data-plane) is kept as its own primitive since it predates all three.

    Each verification yields either satisfaction or a list of violations
    with concrete counterexamples (routes, paths or links). *)

open Hoyan_net
module Traffic_sim = Hoyan_sim.Traffic_sim
module Model = Hoyan_sim.Model

type t =
  | Route_reach of { rr_prefix : Prefix.t; rr_devices : string list;
                     rr_expect : bool }
      (** Control-plane reachability: the prefix should (not) appear on
          the given routers ("a route advertised from A reaches B"). *)
  | Packet_reach of { pr_flow : Flow.t; pr_expect : bool }
      (** Data-plane reachability: the flow should (not) be delivered. *)
  | Route_change of string
      (** An RCL specification over the base and updated global RIBs. *)
  | Flows_moved of { fm_from : string list; fm_to : string list }
      (** Flow-path change: flows whose base path contained subpath
          [fm_from] must use subpath [fm_to] after the change. *)
  | Flow_through of { fl_flow : Flow.t; fl_device : string; fl_expect : bool }
      (** The flow should (not) traverse the device after the change. *)
  | Max_utilization of float
      (** Traffic-load intent: no link above this utilization. *)
  | Link_load_below of { ll_link : string * string; ll_bps : float }

let to_string = function
  | Route_reach { rr_prefix; rr_devices; rr_expect } ->
      Printf.sprintf "route %s %s on [%s]"
        (Prefix.to_string rr_prefix)
        (if rr_expect then "present" else "absent")
        (String.concat "," rr_devices)
  | Packet_reach { pr_flow; pr_expect } ->
      Printf.sprintf "flow %s %s" (Flow.to_string pr_flow)
        (if pr_expect then "delivered" else "not delivered")
  | Route_change spec -> Printf.sprintf "RCL: %s" spec
  | Flows_moved { fm_from; fm_to } ->
      Printf.sprintf "flows on %s move to %s"
        (String.concat ">" fm_from) (String.concat ">" fm_to)
  | Flow_through { fl_flow; fl_device; fl_expect } ->
      Printf.sprintf "flow %s %s %s" (Flow.to_string fl_flow)
        (if fl_expect then "traverses" else "avoids")
        fl_device
  | Max_utilization u -> Printf.sprintf "max utilization %.0f%%" (100. *. u)
  | Link_load_below { ll_link = (a, b); ll_bps } ->
      Printf.sprintf "load on %s->%s below %.0f bps" a b ll_bps

type violation = {
  v_intent : string; (* rendering of the violated intent *)
  v_detail : string;
  v_routes : Route.t list; (* counterexample routes, when applicable *)
  v_paths : Traffic_sim.path list; (* counterexample paths *)
  v_links : ((string * string) * float) list; (* offending links w/ load *)
}

let violation ?(routes = []) ?(paths = []) ?(links = []) intent detail =
  { v_intent = to_string intent; v_detail = detail; v_routes = routes;
    v_paths = paths; v_links = links }

let violation_to_string (v : violation) =
  let extras =
    (if v.v_routes = [] then []
     else
       [ "routes:\n    "
         ^ String.concat "\n    " (List.map Route.to_string v.v_routes) ])
    @ (if v.v_paths = [] then []
       else
         [ "paths:\n    "
           ^ String.concat "\n    "
               (List.map
                  (fun (p : Traffic_sim.path) ->
                    Printf.sprintf "%s (%.2f)"
                      (String.concat ">" p.Traffic_sim.hops)
                      p.Traffic_sim.fraction)
                  v.v_paths) ])
    @
    if v.v_links = [] then []
    else
      [ "links:\n    "
        ^ String.concat "\n    "
            (List.map
               (fun ((a, b), load) -> Printf.sprintf "%s->%s %.0f bps" a b load)
               v.v_links) ]
  in
  Printf.sprintf "VIOLATED [%s]: %s%s" v.v_intent v.v_detail
    (if extras = [] then "" else "\n  " ^ String.concat "\n  " extras)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(** Is [sub] a contiguous subsequence of [l]? *)
let rec contains_subpath (sub : string list) (l : string list) =
  match l with
  | [] -> sub = []
  | _ :: rest ->
      let rec prefix_of = function
        | [], _ -> true
        | _ :: _, [] -> false
        | s :: subr, x :: lr -> String.equal s x && prefix_of (subr, lr)
      in
      prefix_of (sub, l) || contains_subpath sub rest

let flow_result_for (tr : Traffic_sim.result) (f : Flow.t) =
  List.find_opt
    (fun (fr : Traffic_sim.flow_result) -> Flow.equal fr.Traffic_sim.f_flow f)
    tr.Traffic_sim.flow_results

(** The devices holding a selected row for [prefix]: one slot probe
    per (device, VRF) of the RIB, never a row scan (then O(1) per
    device). *)
let holders (rib : Rib.t) (prefix : Prefix.t) : (string, unit) Hashtbl.t =
  let present = Hashtbl.create 64 in
  Rib.fold_prefix
    (fun (r : Route.t) () ->
      if Route.selected r then Hashtbl.replace present r.Route.device ())
    rib prefix ();
  present

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

(** Verify one intent against the simulated base/updated state.

    [base_rib]/[updated_rib] are global RIBs; [base_traffic]/[updated_traffic]
    the traffic results (lazily computed by the pipeline only when a
    traffic-level intent is present). *)
let verify (intent : t) ~(model : Model.t) ~(base_rib : Rib.t)
    ~(updated_rib : Rib.t)
    ~(base_traffic : Traffic_sim.result Lazy.t)
    ~(updated_traffic : Traffic_sim.result Lazy.t) : violation list =
  match intent with
  | Route_reach { rr_prefix; rr_devices; rr_expect } ->
      let holders = holders updated_rib rr_prefix in
      List.filter_map
        (fun dev ->
          let present = Hashtbl.mem holders dev in
          if present = rr_expect then None
          else
            let related =
              Rib.filter
                (fun (r : Route.t) -> Prefix.subsumes r.Route.prefix rr_prefix)
                (Rib.device updated_rib dev)
            in
            Some
              (violation ~routes:(Rib.to_list related) intent
                 (Printf.sprintf "on %s the prefix is %s" dev
                    (if present then "present" else "absent"))))
        rr_devices
  | Packet_reach { pr_flow; pr_expect } -> (
      let tr = Lazy.force updated_traffic in
      match flow_result_for tr pr_flow with
      | None -> [ violation intent "flow not simulated" ]
      | Some fr ->
          let delivered = fr.Traffic_sim.f_delivered > 0.999 in
          if delivered = pr_expect then []
          else
            [
              violation ~paths:fr.Traffic_sim.f_paths intent
                (Printf.sprintf
                   "delivered fraction %.2f (dropped %.2f, looped %.2f)"
                   fr.Traffic_sim.f_delivered fr.Traffic_sim.f_dropped
                   fr.Traffic_sim.f_looped);
            ])
  | Route_change spec -> (
      match Hoyan_rcl.Verify.check_spec spec ~base:base_rib ~updated:updated_rib with
      | Error msg -> [ violation intent ("specification error: " ^ msg) ]
      | Ok Hoyan_rcl.Verify.Satisfied -> []
      | Ok (Hoyan_rcl.Verify.Violated vs) ->
          List.map
            (fun (v : Hoyan_rcl.Verify.violation) ->
              violation ~routes:v.Hoyan_rcl.Verify.v_routes intent
                (Hoyan_rcl.Verify.violation_to_string
                   { v with Hoyan_rcl.Verify.v_routes = [] }))
            vs)
  | Flows_moved { fm_from; fm_to } ->
      let base_tr = Lazy.force base_traffic in
      let upd_tr = Lazy.force updated_traffic in
      List.filter_map
        (fun (bfr : Traffic_sim.flow_result) ->
          let was_on_path =
            List.exists
              (fun (p : Traffic_sim.path) ->
                contains_subpath fm_from p.Traffic_sim.hops)
              bfr.Traffic_sim.f_paths
          in
          if not was_on_path then None
          else
            match flow_result_for upd_tr bfr.Traffic_sim.f_flow with
            | None -> Some (violation intent "flow missing after change")
            | Some ufr ->
                let on_new =
                  ufr.Traffic_sim.f_paths <> []
                  && List.for_all
                       (fun (p : Traffic_sim.path) ->
                         contains_subpath fm_to p.Traffic_sim.hops)
                       ufr.Traffic_sim.f_paths
                in
                if on_new then None
                else
                  Some
                    (violation ~paths:ufr.Traffic_sim.f_paths intent
                       (Printf.sprintf "flow %s did not move"
                          (Flow.to_string bfr.Traffic_sim.f_flow))))
        base_tr.Traffic_sim.flow_results
  | Flow_through { fl_flow; fl_device; fl_expect } -> (
      let tr = Lazy.force updated_traffic in
      match flow_result_for tr fl_flow with
      | None -> [ violation intent "flow not simulated" ]
      | Some fr ->
          let through =
            List.exists
              (fun (p : Traffic_sim.path) ->
                List.exists (String.equal fl_device) p.Traffic_sim.hops)
              fr.Traffic_sim.f_paths
          in
          if through = fl_expect then []
          else
            [
              violation ~paths:fr.Traffic_sim.f_paths intent
                (Printf.sprintf "flow %s %s" (Flow.to_string fl_flow)
                   (if through then "traverses it" else "does not traverse it"));
            ])
  | Max_utilization max_util ->
      let tr = Lazy.force updated_traffic in
      let over =
        Traffic_sim.utilizations model tr
        |> List.filter (fun (_, _, util) -> util > max_util)
        |> List.map (fun (link, load, _) -> (link, load))
      in
      if over = [] then []
      else
        [
          violation ~links:over intent
            (Printf.sprintf "%d link(s) above %.0f%% utilization"
               (List.length over) (100. *. max_util));
        ]
  | Link_load_below { ll_link; ll_bps } ->
      let tr = Lazy.force updated_traffic in
      let load =
        Option.value (Hashtbl.find_opt tr.Traffic_sim.link_load ll_link)
          ~default:0.
      in
      if load < ll_bps then []
      else
        [
          violation
            ~links:[ (ll_link, load) ]
            intent
            (Printf.sprintf "load %.0f bps >= %.0f bps" load ll_bps);
        ]
