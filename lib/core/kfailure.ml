(** k-failure verification (§6.2, "fault-tolerance checking").

    Hoyan checks whether a property still holds when no more than [k]
    routers/links have failed.  The sweep is exhaustive by default: the
    static failure-equivalence analysis ({!Hoyan_analysis.Failure_eq},
    DESIGN.md §2.9) partitions the scenario space into classes whose
    simulations provably coincide on the property's slice — the
    base-equivalent class carries the base verdict with zero simulation,
    cut-analysis classes are decided statically, and each remaining
    class simulates one representative (in parallel across domains)
    whose verdict replicates to the members.  An optional
    [max_scenarios] cap re-introduces sampling as an {e explicit,
    reported} escape hatch ([kr_sampled]) — never silent. *)

open Hoyan_net
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Incremental = Hoyan_sim.Incremental
module Telemetry = Hoyan_telemetry.Telemetry
module Lint = Hoyan_analysis.Lint
module Semantic = Hoyan_analysis.Semantic
module Feq = Hoyan_analysis.Failure_eq
module Parallel = Hoyan_sim.Parallel
module Isis = Hoyan_proto.Isis

type failure = Feq.failure =
  | Link_down of string * string
  | Device_down of string

let failure_to_string = Feq.failure_to_string

(** The property to hold in every <=k-failure state.  [p_footprint]
    declares what the check can observe — the pruning tiers are only as
    good as this declaration is precise, and [Opaque] disables them. *)
type property = {
  p_name : string;
  p_footprint : Feq.footprint;
  p_check :
    model:Model.t ->
    rib:Rib.t ->
    traffic:Traffic_sim.result Lazy.t ->
    string option (* None = holds; Some reason = violated *);
}

(** Reachability property: the prefix stays on all given devices. *)
let prefix_survives ~prefix ~devices =
  {
    p_name =
      Printf.sprintf "prefix %s survives on [%s]" (Prefix.to_string prefix)
        (String.concat "," devices);
    p_footprint = Feq.Reach_all (prefix, devices);
    p_check =
      (fun ~model:_ ~rib ~traffic:_ ->
        let present = Intents.holders rib prefix in
        let missing =
          List.filter (fun dev -> not (Hashtbl.mem present dev)) devices
        in
        if missing = [] then None
        else Some ("missing on " ^ String.concat "," missing));
  }

(** Load property: no link above the utilization bound.  Traffic-
    dependent, hence [Opaque]: a removed link reroutes flows even when
    every RIB is byte-identical, so no RIB-slice argument applies. *)
let no_overload ~max_util =
  {
    p_name = Printf.sprintf "no link above %.0f%%" (100. *. max_util);
    p_footprint = Feq.Opaque;
    p_check =
      (fun ~model ~rib:_ ~traffic ->
        let tr = Lazy.force traffic in
        let over =
          Traffic_sim.utilizations model tr
          |> List.filter (fun (_, _, u) -> u > max_util)
        in
        match over with
        | [] -> None
        | first :: rest ->
            let ((wa, wb), _, wu) =
              List.fold_left
                (fun ((_, _, bu) as best) ((_, _, u) as cand) ->
                  if u > bu then cand else best)
                first rest
            in
            Some
              (Printf.sprintf "%d overloaded link(s), worst %s->%s at %.1f%%"
                 (List.length over) wa wb (100. *. wu)));
  }

let combinations = Feq.combinations

type scenario_result = {
  sr_failures : failure list;
  sr_violation : string option;
}

type result = {
  kr_property : string;
  kr_k : int;
  kr_total : int;  (** scenarios enumerated over sizes 1..k *)
  kr_checked : int;  (** scenarios with a verdict (= total unless sampled) *)
  kr_carried : int;  (** verdict carried from the base run (tier 1) *)
  kr_replicated : int;  (** verdict replicated from a class representative *)
  kr_static : int;  (** verdict proven by the cut analysis, no fixpoint *)
  kr_simulated : int;  (** scenarios actually simulated *)
  kr_restricted : int;
      (** simulated representatives whose fixpoint was restricted to the
          property footprint's prefix closure: [kr_simulated] for a
          prefix-enumerable footprint, 0 for [Opaque] (always simulates
          in full) *)
  kr_sampled : bool;  (** an explicit [max_scenarios] cap dropped classes *)
  kr_violations : scenario_result list;
}

(* The scenario's model, over a mask of the base model's IGP view. *)
let apply_failures (model : Model.t) (fs : failure list) : Model.t =
  Model.fail model (List.map Feq.topo_op fs)

(* Simulate one failure scenario and evaluate the property.  [only]
   restricts the fixpoint to the property footprint's aggregate closure
   ([Semantic.footprint_closure], the prefixes [Failure_eq.analyze]
   fingerprints): sound because a footprint declares everything
   [p_check] observes, and per-prefix decomposability makes the
   restricted run converge the footprint's rows exactly.  With the
   verdict come the IGP rows the scenario's view reused and recomputed
   and the nodes it re-settled. *)
let simulate_scenario ?only (model : Model.t) ~input_routes ~flows
    (prop : property) (fs : failure list) : string option * (int * int * int)
    =
  let failed_model = apply_failures model fs in
  let rib =
    (Route_sim.run ?only failed_model ~input_routes ()).Route_sim.rib
  in
  let traffic = lazy (Traffic_sim.run failed_model ~rib ~flows ()) in
  let igp = failed_model.Model.igp in
  ( prop.p_check ~model:failed_model ~rib ~traffic,
    (Isis.reused igp, Isis.recomputed igp, Isis.resettled igp) )

(** Check the property under all failure combinations of size 1..k.

    Exhaustive over class representatives by default.  [prune:false]
    bypasses the static analysis entirely (every scenario simulates) —
    the brute-force oracle for tests and benches.  [max_scenarios], when
    given, caps the number of {e simulated representatives} by
    deterministic stride; dropped classes are reported as unchecked via
    [kr_total]/[kr_checked] and [kr_sampled].  [k] and [max_scenarios]
    below 1 raise [Invalid_argument].  [inc], a captured
    context of [model], lends its cached base RIB and FIBs to the base
    verdict instead of re-converging; the restriction does not need
    it, so neither front door passes it (only the benchmark and the
    tests do). *)
let check ?tm ?max_scenarios ?(prune = true) ?(devices = false)
    ?(links = true) ?inc (model : Model.t) ~(input_routes : Route.t list)
    ~(flows : Flow.t list) ~(k : int) (prop : property) : result =
  if k < 1 || Option.fold ~none:false ~some:(fun c -> c < 1) max_scenarios
  then invalid_arg "Kfailure.check: k and max_scenarios must be at least 1";
  (* Prefix-enumerable footprints restrict every fixpoint — each
     representative's and the base verdict's — to the footprint's
     aggregate closure.  [Opaque] footprints (traffic properties)
     simulate in full, honestly counted. *)
  let input = Lint.make ~topo:model.Model.topo model.Model.configs in
  let only =
    let closure ps =
      let set =
        Prefix.Set.of_list (Semantic.footprint_closure input ~input_routes ps)
      in
      Some (fun p -> Prefix.Set.mem p set)
    in
    match prop.p_footprint with
    | Feq.Reach_all (p, _) -> closure [ p ]
    | Feq.Prefix_scoped (ps, _) -> closure ps
    | Feq.Opaque -> None
  in
  (* The inputs every restricted fixpoint keeps, filtered once per sweep
     rather than once per representative. *)
  let sim_inputs =
    match only with
    | None -> input_routes
    | Some keep ->
        List.filter (fun (r : Route.t) -> keep r.Route.prefix) input_routes
  in
  let plan =
    if prune then
      let g = Semantic.build ?tm input in
      let an =
        Feq.create ?tm ~te_aware:model.Model.te_aware g ~input_routes
      in
      Feq.analyze ?tm ~devices ~links an ~k prop.p_footprint
    else Feq.singletons ~devices ~links model.Model.topo ~k
  in
  (* The base verdict backs every carried scenario; forced only when a
     base-equivalent class exists. *)
  let base_verdict =
    lazy
      (match inc with
      | Some ictx ->
          let rib = Incremental.base_rib ictx in
          let traffic =
            lazy
              (Traffic_sim.run ~fibs:(Incremental.base_fibs ictx)
                 ~ecx:(Incremental.base_ec_ctx ictx) model ~rib ~flows ())
          in
          prop.p_check ~model ~rib ~traffic
      | None ->
          let rib =
            (Route_sim.run ?only model ~input_routes:sim_inputs ())
              .Route_sim.rib
          in
          let traffic = lazy (Traffic_sim.run model ~rib ~flows ()) in
          prop.p_check ~model ~rib ~traffic)
  in
  let classes = Array.of_list plan.Feq.pl_classes in
  (* Representatives to simulate, with the explicit sampling escape
     hatch: a [max_scenarios] cap stride-samples the representative list
     and reports the drop — never silently. *)
  let sim_ids =
    Array.to_list
      (Array.mapi (fun i (c : Feq.cls) -> (i, c)) classes)
    |> List.filter_map (fun (i, (c : Feq.cls)) ->
           if c.Feq.cl_decision = Feq.Simulate then Some i else None)
  in
  let chosen_ids, sampled =
    match max_scenarios with
    | Some cap when List.length sim_ids > cap ->
        let n = List.length sim_ids in
        let stride = (n + cap - 1) / cap in
        (List.filteri (fun i _ -> i mod stride = 0) sim_ids, true)
    | _ -> (sim_ids, false)
  in
  let simulated = List.length chosen_ids in
  let restricted = if Option.is_some only then simulated else 0 in
  (* The representative loop under its own span, so a trace splits a
     sweep into [whatif.analyze] and [whatif.simulate]. *)
  let tmr = match tm with Some t -> t | None -> Telemetry.get () in
  let sp =
    Telemetry.span tmr "whatif.simulate"
      ~args:
        [ ("representatives", string_of_int simulated);
          ("restricted", string_of_int restricted) ]
  in
  let reps =
    Parallel.map ?tm
      (fun id ->
        ( id,
          simulate_scenario ?only model ~input_routes:sim_inputs ~flows prop
            classes.(id).Feq.cl_rep ))
      chosen_ids
  in
  (* IGP rows the representatives' views reused from the base model's
     view / recomputed, and the nodes they re-settled, summed from their
     returns *)
  let sum f =
    string_of_int (List.fold_left (fun n (_, (_, w)) -> n + f w) 0 reps)
  in
  Telemetry.finish tmr sp
    ~args:
      [ ("igp_rows_reused", sum (fun (r, _, _) -> r));
        ("igp_rows_recomputed", sum (fun (_, r, _) -> r));
        ("igp_vertices_resettled", sum (fun (_, _, r) -> r)) ];
  (match tm with
  | Some t when restricted > 0 ->
      Telemetry.count t "hoyan_kfailure_restricted_total" restricted
  | _ -> ());
  let verdict_of_class = Hashtbl.create 64 in
  List.iter (fun (id, (v, _)) -> Hashtbl.replace verdict_of_class id v) reps;
  (* Per-scenario verdicts in enumeration order; [None] = unchecked
     (dropped by sampling). *)
  let carried = ref 0 and replicated = ref 0 and static = ref 0 in
  let seen_rep = Hashtbl.create 64 in
  let scenario_verdicts =
    List.mapi
      (fun i fs ->
        let id = plan.Feq.pl_class_of.(i) in
        match classes.(id).Feq.cl_decision with
        | Feq.Carry_base ->
            incr carried;
            Some (fs, Lazy.force base_verdict)
        | Feq.Static_violation reason ->
            incr static;
            Some (fs, Some reason)
        | Feq.Simulate -> (
            match Hashtbl.find_opt verdict_of_class id with
            | None -> None (* class dropped by the sampling cap *)
            | Some v ->
                if Hashtbl.mem seen_rep id then incr replicated
                else Hashtbl.replace seen_rep id ();
                Some (fs, v)))
      plan.Feq.pl_scenarios
  in
  let checked = List.length (List.filter Option.is_some scenario_verdicts) in
  let violations =
    List.filter_map
      (function
        | Some (fs, Some reason) ->
            Some { sr_failures = fs; sr_violation = Some reason }
        | _ -> None)
      scenario_verdicts
  in
  {
    kr_property = prop.p_name;
    kr_k = k;
    kr_total = plan.Feq.pl_total;
    kr_checked = checked;
    kr_carried = !carried;
    kr_replicated = !replicated;
    kr_static = !static;
    kr_simulated = simulated;
    kr_restricted = restricted;
    kr_sampled = sampled;
    kr_violations = violations;
  }

(* The deterministic verdict body of a sweep: counts and violations, no
   timings — the server's whatif response and [hoyan whatif]'s text
   output.  The [sampled] line appears only under a [max_scenarios]
   cap. *)
let body (r : result) : string =
  let b = Buffer.create 256 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "verdict: %s" (if r.kr_violations = [] then "PASS" else "FAIL");
  line "whatif: property %s" r.kr_property;
  line
    "whatif: %d scenario(s) (k<=%d); %d carried, %d static, %d replicated, \
     %d simulated"
    r.kr_total r.kr_k r.kr_carried r.kr_static r.kr_replicated r.kr_simulated;
  if r.kr_sampled then
    line "sampled: %d of %d scenario(s) checked" r.kr_checked r.kr_total;
  List.iter
    (fun (s : scenario_result) ->
      line "violation: [%s] %s"
        (String.concat ", " (List.map failure_to_string s.sr_failures))
        (Option.value s.sr_violation ~default:""))
    r.kr_violations;
  Buffer.contents b
