(* Generated networks with BGP aggregates, for the route executors'
   oracles.  The generator emits no aggregate, so these helpers add them
   to a generated model: plain and summary-only aggregates over its input
   prefixes, a nested pair among them, on randomly drawn devices; and
   [examples/aggregate_plan.txt] (an aggregate over the 150.0.0.0/16
   inputs on r00-bdr01) applied to a network, plain or summary-only. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Model = Hoyan_sim.Model
module Types = Hoyan_config.Types

(** [add ~seed g] is [g]'s model with three to five aggregates over its
    input prefixes, two of them nested, each plain or summary-only, with
    or without an AS set. *)
let add ~seed (g : G.t) : Model.t =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let model = g.G.model in
  let devices = List.map fst (Model.Smap.bindings model.Model.configs) in
  let prefixes =
    List.map (fun (r : Route.t) -> r.Route.prefix) g.G.input_routes
  in
  let over p d = Prefix.make (Prefix.ip p) (max 1 (Prefix.len p - d)) in
  let p = pick prefixes in
  let aggregates =
    over p 8 :: over p 4
    :: List.init
         (1 + Random.State.int rng 3)
         (fun _ -> over (pick prefixes) (pick [ 2; 4; 8 ]))
  in
  let aggregate configs ag =
    let ag =
      { Types.ag_prefix = ag; ag_as_set = Random.State.bool rng;
        ag_summary_only = Random.State.bool rng; ag_vrf = Route.default_vrf }
    in
    Model.Smap.update (pick devices)
      (Option.map (fun (c : Types.t) ->
           { c with
             Types.dc_bgp =
               { c.Types.dc_bgp with
                 Types.bgp_aggregates =
                   ag :: c.Types.dc_bgp.Types.bgp_aggregates } }))
      configs
  in
  Model.patch model (List.fold_left aggregate model.Model.configs aggregates)

(** [model] after [examples/aggregate_plan.txt] on r00-bdr01, the
    aggregate summary-only if [summary_only]. *)
let example_plan ~summary_only (model : Model.t) : Model.t =
  let block =
    if summary_only then String.trim Example_plans.aggregate ^ " summary-only\n"
    else Example_plans.aggregate
  in
  fst
    (Model.apply_change_plan model
       (Hoyan_config.Change_plan.make "aggregate"
          ~commands:[ ("r00-bdr01", block) ]))
