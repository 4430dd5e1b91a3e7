(** The change-verification pipeline (the blue boxes of Figure 2).

    Given a change plan, Hoyan (1) parses the commands and constructs the
    updated network model incrementally on top of the pre-computed base
    model, (2) runs route simulation on the pre-computed input routes
    (plus any new routes the plan announces), (3) runs traffic simulation
    on the pre-stored input flows, and (4) checks the formally specified
    intents against the simulated RIBs, flow paths, and traffic loads,
    emitting concrete counterexamples on violation. *)

open Hoyan_net
module Cp = Hoyan_config.Change_plan
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Framework = Hoyan_dist.Framework
module Lint = Hoyan_analysis.Lint
module Diagnostics = Hoyan_analysis.Diagnostics
module Semantic = Hoyan_analysis.Semantic
module Differential = Hoyan_analysis.Differential
module Incremental = Hoyan_sim.Incremental
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

type request = {
  rq_name : string;
  rq_plan : Cp.t;
  rq_intents : Intents.t list;
}

(** Distributed-mode subtask coverage: how much of the split actually
    reached the merge (the phase outcome contract, surfaced). *)
type coverage = {
  cov_total : int;
  cov_merged : int;
  cov_failed : (string * string) list;
      (* permanently-failed subtask ids with their terminal reasons *)
}

type result = {
  vr_request : string;
  vr_ok : bool;
  vr_violations : Intents.violation list;
  vr_plan_warnings : string list;
      (** parse/delete errors from applying the plan: risk signals on
          their own (Table 6 "incorrect commands") *)
  vr_lint : Diagnostics.t list;
      (** static-analysis findings from the pre-simulation gate *)
  vr_gated : bool;
      (** the fail-fast gate stopped the request before any simulation *)
  vr_precheck : (Intents.t * Semantic.verdict) list;
      (** the static pre-checker's verdict for every intent *)
  vr_sim_skipped : bool;
      (** every intent was resolved statically; no fixpoint ran *)
  vr_diff_class : Differential.classification option;
      (** differential mode only: the plan's semantic classification *)
  vr_carried : Intents.t list;
      (** differential mode only: intents whose base-run verdicts
          provably survive the change (outside the dirty region) *)
  vr_coverage : coverage option;
      (** distributed mode only: subtask coverage of the route phase *)
  vr_partial : bool;
      (** the simulated state is missing permanently-failed subtasks'
          results; [vr_ok] is never [true] when this is set *)
  vr_inc : Incremental.stats option;
      (** incremental-simulation accounting when the request was spliced
          by a [Splice] executor *)
  vr_updated_model : Model.t;
  vr_base_rib : Route.t list;
  vr_updated_rib : Route.t list;
  vr_updated_traffic : Traffic_sim.result Lazy.t;
  vr_sim_seconds : float;
  vr_traffic_seconds : float ref;
      (** wall-clock spent forcing [vr_updated_traffic] — measured at
          the forcing site, since the lazy is typically forced {e after}
          [vr_sim_seconds] stops counting (by the server or a traffic
          intent); [0.] until forced *)
}

(** Pipeline seconds plus (if forced) traffic-simulation seconds: the
    honest total cost of the request so far. *)
let total_seconds (r : result) : float =
  r.vr_sim_seconds +. !(r.vr_traffic_seconds)

(** How the static-analysis gate in front of the pipeline behaves. *)
type lint_gate =
  | Lint_off (* skip the analysis entirely *)
  | Lint_warn (* record diagnostics; never block (the default) *)
  | Lint_fail (* any error-severity diagnostic fails the request
                 before the first fixpoint runs *)

(** How the route phase of a request is executed. *)
type executor =
  | From_scratch (* Route_sim.run on the patched model: the reference *)
  | Splice of Incremental.ctx
      (* dirty-region re-convergence; fallbacks counted in vr_inc *)
  | Distributed of {
      subtasks : int;
      chaos : Hoyan_dist.Chaos.t;
      on_partial : [ `Refuse | `Degrade ];
    }

let plan_warnings (reports : Cp.apply_report list) : string list =
  List.concat_map
    (fun (r : Cp.apply_report) ->
      List.map
        (fun (i : Cp.line_issue) ->
          Printf.sprintf "%s: %s" r.Cp.ar_device (Cp.issue_to_string i))
        r.Cp.ar_issues)
    reports

(** RCL specification sources carried by the request's intents, for the
    static-analysis gate. *)
let lint_specs (intents : Intents.t list) : (string * string) list =
  List.mapi (fun i intent -> (i, intent)) intents
  |> List.filter_map (function
       | i, Intents.Route_change spec ->
           Some (Printf.sprintf "intent-%d" i, spec)
       | _ -> None)

(** Run one change-verification request against the pre-processed base.
    Each pipeline phase runs under its own telemetry span
    ([verify.lint_gate] / [verify.model_update] / [verify.route_sim] /
    [verify.traffic_sim] / [verify.intents]); the static-analysis gate
    additionally journals its outcome as a [lint.gate] event. *)
let run ?tm ?(exec = From_scratch) ?(lint = Lint_warn) ?(diff = false)
    ?(stop_after = `Full) (base : Preprocess.base) (rq : request) : result =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let rq_sp =
    Telemetry.span tm ~args:[ ("request", rq.rq_name) ] "verify.request"
  in
  let t0 = Unix.gettimeofday () in
  (* traffic simulation is lazy and usually forced after [vr_sim_seconds]
     stops counting — time the forcing site so the cost is attributed
     somewhere ([vr_traffic_seconds] + a metric) instead of vanishing *)
  let traffic_seconds = ref 0. in
  let timed_traffic (f : unit -> Traffic_sim.result) :
      Traffic_sim.result Lazy.t =
    lazy
      (let tt0 = Unix.gettimeofday () in
       let r = f () in
       let dt = Unix.gettimeofday () -. tt0 in
       traffic_seconds := !traffic_seconds +. dt;
       Telemetry.observe tm "hoyan_verify_traffic_seconds" dt;
       r)
  in
  (* 0. static-analysis gate: lint the base configs, the change plan and
     the request's RCL specs before any fixpoint runs *)
  let lint_diags =
    match lint with
    | Lint_off -> []
    | Lint_warn | Lint_fail ->
        Telemetry.with_span tm "verify.lint_gate" (fun () ->
            let model = base.Preprocess.b_model in
            Lint.run
              (Lint.make ~topo:model.Model.topo ~plan:rq.rq_plan
                 ~specs:(lint_specs rq.rq_intents) model.Model.configs))
  in
  let gated = lint = Lint_fail && Lint.has_errors lint_diags in
  if Telemetry.enabled tm && lint <> Lint_off then
    Telemetry.event tm "lint.gate"
      [
        ("request", Journal.S rq.rq_name);
        ("diagnostics", Journal.I (List.length lint_diags));
        ("gated", Journal.B gated);
      ];
  if gated || stop_after = `Gate then begin
    if gated then Telemetry.count tm "hoyan_verify_gated_total" 1;
    Telemetry.finish tm rq_sp;
    {
      vr_request = rq.rq_name;
      (* a [`Gate]-bounded request (the server's lint class) is ok iff
         the gate found no error-severity diagnostic; a gated request
         never is *)
      vr_ok = (not gated) && stop_after = `Gate
              && not (Lint.has_errors lint_diags);
      vr_violations = [];
      vr_plan_warnings = [];
      vr_lint = lint_diags;
      vr_gated = gated;
      vr_precheck = [];
      vr_sim_skipped = false;
      vr_diff_class = None;
      vr_carried = [];
      vr_coverage = None;
      vr_partial = false;
      vr_inc = None;
      vr_updated_model = base.Preprocess.b_model;
      vr_base_rib = [];
      vr_updated_rib = [];
      vr_updated_traffic =
        timed_traffic (fun () ->
            Traffic_sim.run base.Preprocess.b_model ~rib:[] ~flows:[] ());
      vr_sim_seconds = Unix.gettimeofday () -. t0;
      vr_traffic_seconds = traffic_seconds;
    }
  end
  else begin
  (* 1. incremental model update *)
  let updated_model, reports =
    Telemetry.with_span tm "verify.model_update" (fun () ->
        Model.apply_change_plan base.Preprocess.b_model rq.rq_plan)
  in
  let warnings = plan_warnings reports in
  (* 2. the updated model's route inputs: reclaimed prefixes removed,
     announced ones added (one rule, shared with the incremental path) *)
  let input_routes =
    Differential.patched_routes rq.rq_plan base.Preprocess.b_input_routes
  in
  (* 2a. differential pre-check: diff base against patched and carry
     over every intent the change provably cannot affect — reachability
     intents whose prefix is outside the statically computed dirty
     region, and (on a semantic no-op) everything else too.  Carried
     intents keep their base-run verdicts; only the affected remainder
     flows into the pre-checker and the simulator below. *)
  let diff_info =
    if not diff then None
    else
      Telemetry.with_span tm "verify.diff" (fun () ->
          let bm = base.Preprocess.b_model in
          Some
            (Differential.diff ~tm
               (Lint.make ~topo:bm.Model.topo ~render:false bm.Model.configs)
               rq.rq_plan))
  in
  let carried, active_intents =
    match diff_info with
    | None -> ([], rq.rq_intents)
    | Some _ when base.Preprocess.b_partial ->
        (* carrying verdicts derived from a partial (failed-subtask)
           base run would promote unsound verdicts to proven facts: a
           route missing from a failed subtask looks like a base
           reachability violation — or masks one.  Refuse; every intent
           goes through the pre-checker and the simulator instead. *)
        Telemetry.count tm "hoyan_verify_carryover_refused_total" 1;
        if Telemetry.enabled tm then
          Telemetry.event tm "verify.carryover_refused"
            [
              ("request", Journal.S rq.rq_name);
              ("reason", Journal.S "base run partial");
            ];
        ([], rq.rq_intents)
    | Some d ->
        List.partition
          (fun intent ->
            match intent with
            | Intents.Route_reach { rr_prefix; _ } ->
                Differential.carries_over ~tm d
                  ~input_routes:base.Preprocess.b_input_routes rr_prefix
            | _ ->
                d.Differential.df_class = Differential.No_op)
          rq.rq_intents
  in
  if Telemetry.enabled tm && diff then
    Telemetry.event tm "verify.diff"
      [
        ("request", Journal.S rq.rq_name);
        ( "class",
          Journal.S
            (match diff_info with
            | Some d ->
                Differential.classification_to_string d.Differential.df_class
            | None -> "-") );
        ("carried", Journal.I (List.length carried));
        ("active", Journal.I (List.length active_intents));
      ];
  (* carried intents are re-evaluated against the (cached) base state:
     their verdicts are by construction the base run's verdicts *)
  let carried_violations =
    if carried = [] then []
    else
      Telemetry.with_span tm "verify.carryover" (fun () ->
          let brib = Lazy.force base.Preprocess.b_rib in
          List.concat_map
            (fun intent ->
              Intents.verify intent ~model:base.Preprocess.b_model
                ~base_rib:brib ~updated_rib:brib
                ~base_traffic:base.Preprocess.b_traffic
                ~updated_traffic:base.Preprocess.b_traffic)
            carried)
  in
  (* 2b. static intent pre-check on the updated model: classify each
     reachability intent against the control-plane graph; refuted intents
     become violations with a static witness, and when nothing is left
     for the simulator the fixpoints below are skipped entirely *)
  let precheck_results =
    if active_intents = [] then []
    else
      Telemetry.with_span tm "verify.precheck" (fun () ->
          let g =
            Semantic.build ~tm
              (Lint.make ~topo:updated_model.Model.topo ~render:false
                 updated_model.Model.configs)
          in
          (* batch the reachability intents (per-prefix closures are
             shared); anything the pre-checker has no theory for goes
             straight to the simulator *)
          let tagged =
            List.mapi
              (fun i intent ->
                match intent with
                | Intents.Route_reach { rr_prefix; rr_devices; rr_expect } ->
                    ( intent,
                      Some
                        {
                          Semantic.ri_name = Printf.sprintf "intent-%d" i;
                          ri_prefix = rr_prefix;
                          ri_devices = rr_devices;
                          ri_expect = rr_expect;
                        } )
                | _ -> (intent, None))
              active_intents
          in
          let verdicts =
            Semantic.precheck_batch ~tm g ~input_routes
              (List.filter_map snd tagged)
          in
          let rec zip tagged verdicts =
            match (tagged, verdicts) with
            | [], _ -> []
            | (intent, None) :: rest, vs ->
                (intent, Semantic.Needs_simulation) :: zip rest vs
            | (intent, Some _) :: rest, (_, v) :: vs ->
                (intent, v) :: zip rest vs
            | (intent, Some _) :: rest, [] ->
                (intent, Semantic.Needs_simulation) :: zip rest []
          in
          zip tagged verdicts)
  in
  let static_violations =
    List.filter_map
      (function
        | intent, Semantic.Refuted why ->
            Some (Intents.violation intent ("statically refuted: " ^ why))
        | _ -> None)
      precheck_results
  in
  let sim_intents =
    if precheck_results = [] then active_intents
    else
      List.filter_map
        (function
          | intent, Semantic.Needs_simulation -> Some intent | _ -> None)
        precheck_results
  in
  let resolved = List.length active_intents - List.length sim_intents in
  if Telemetry.enabled tm && precheck_results <> [] then begin
    Telemetry.count tm "hoyan_precheck_resolved_total" resolved;
    Telemetry.event tm "verify.precheck"
      [
        ("request", Journal.S rq.rq_name);
        ("intents", Journal.I (List.length active_intents));
        ("resolved", Journal.I resolved);
        ("refuted", Journal.I (List.length static_violations));
      ]
  end;
  (* every intent was carried over or decided statically *)
  let sim_skipped = rq.rq_intents <> [] && sim_intents = [] in
  (* a [`Static]-bounded request (the server's precheck class) never
     simulates: whatever the pre-checker left open stays open, and the
     verdict covers only the statically decided part *)
  let static_only = stop_after = `Static in
  (* 3. route simulation on the updated model over the patched inputs
     bound above, by the request's executor.  [Splice] re-converges
     only the plan's dirty region and splices into the converged base
     RIB instead of running the fixpoint from scratch
     (broad plans honestly fall back inside [Incremental.simulate] —
     see [vr_inc]). *)
  let spliced, updated_rib, dist_coverage =
    if sim_skipped || static_only then (None, [], None)
    else
      Telemetry.with_span tm "verify.route_sim" (fun () ->
          match exec with
          | Splice ictx ->
              let s = Incremental.simulate ~tm ?d:diff_info ictx rq.rq_plan in
              (Some s, s.Incremental.s_rib, None)
          | From_scratch ->
              let r = Route_sim.run ~tm updated_model ~input_routes () in
              (None, r.Route_sim.rib, None)
          | Distributed { subtasks; chaos; _ } ->
              let fw = Framework.create ~tm ~chaos updated_model in
              let phase =
                Framework.run_route_phase ~subtasks fw ~input_routes
              in
              let cov =
                {
                  cov_total = List.length phase.Framework.rp_subtasks;
                  cov_merged =
                    List.length phase.Framework.rp_subtasks
                    - List.length phase.Framework.rp_failed;
                  cov_failed =
                    List.map
                      (fun (f : Framework.subtask_failure) ->
                        (f.Framework.sf_id, f.Framework.sf_reason))
                      phase.Framework.rp_failed;
                }
              in
              (None, phase.Framework.rp_rib, Some cov))
  in
  let partial =
    match dist_coverage with
    | Some c -> c.cov_merged < c.cov_total
    | None -> false
  in
  (* 4. traffic simulation (lazy: only if an intent needs it).  The
     splice path forces its lazy traffic over the patched FIBs; either
     way the forcing cost lands in [vr_traffic_seconds], not
     [vr_sim_seconds]. *)
  let updated_traffic =
    match spliced with
    | Some s -> timed_traffic (fun () -> Lazy.force s.Incremental.s_traffic)
    | None ->
        timed_traffic (fun () ->
            Telemetry.with_span tm "verify.traffic_sim" (fun () ->
                Traffic_sim.run ~tm updated_model ~rib:updated_rib
                  ~flows:base.Preprocess.b_flows ()))
  in
  (* 5. intent verification for whatever the pre-checker left open *)
  let base_rib =
    if sim_skipped || static_only then []
    else Lazy.force base.Preprocess.b_rib
  in
  (* partial distributed results: intent verdicts over an incomplete RIB
     would be unsound (a route missing from a failed subtask looks like a
     reachability violation — or masks one).  The default refuses to
     verify; the graceful-degradation mode verifies anyway but the result
     is flagged [vr_partial] and can never be [vr_ok]. *)
  let refuse_partial =
    partial
    && match exec with
       | Distributed { on_partial = `Refuse; _ } -> true
       | _ -> false
  in
  let sim_violations =
    if sim_intents = [] || refuse_partial || static_only then []
    else
      Telemetry.with_span tm "verify.intents" (fun () ->
          List.concat_map
            (fun intent ->
              Intents.verify intent ~model:updated_model ~base_rib
                ~updated_rib ~base_traffic:base.Preprocess.b_traffic
                ~updated_traffic)
            sim_intents)
  in
  let violations = static_violations @ sim_violations @ carried_violations in
  let ok = violations = [] && warnings = [] && not partial in
  Telemetry.finish tm rq_sp;
  if Telemetry.enabled tm then
    Telemetry.event tm "verify.done"
      [
        ("request", Journal.S rq.rq_name);
        ("ok", Journal.B ok);
        ("violations", Journal.I (List.length violations));
        ("sim_skipped", Journal.B sim_skipped);
        ("partial", Journal.B partial);
      ];
  {
    vr_request = rq.rq_name;
    vr_ok = ok;
    vr_violations = violations;
    vr_plan_warnings = warnings;
    vr_lint = lint_diags;
    vr_gated = false;
    vr_precheck = precheck_results;
    vr_sim_skipped = sim_skipped;
    vr_diff_class =
      Option.map (fun d -> d.Differential.df_class) diff_info;
    vr_carried = carried;
    vr_coverage = dist_coverage;
    vr_partial = partial;
    vr_inc = Option.map (fun (s : Incremental.sim) -> s.Incremental.s_stats)
        spliced;
    vr_updated_model = updated_model;
    vr_base_rib = base_rib;
    vr_updated_rib = updated_rib;
    vr_updated_traffic = updated_traffic;
    (* elapsed minus whatever the intent checks spent forcing traffic:
       the traffic cost lives in [vr_traffic_seconds] only, whether the
       lazy was forced here or later by the caller *)
    vr_sim_seconds = Unix.gettimeofday () -. t0 -. !traffic_seconds;
    vr_traffic_seconds = traffic_seconds;
  }
  end

let report (r : result) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "=== change verification: %s ===\n" r.vr_request);
  Buffer.add_string b
    (Printf.sprintf "result: %s (%.2fs)%s%s\n"
       (if r.vr_ok then "PASS" else "FAIL")
       (total_seconds r)
       (if r.vr_gated then " [stopped by the static-analysis gate]" else "")
       (if r.vr_sim_skipped then
          " [all intents resolved statically; simulation skipped]"
        else ""));
  (match r.vr_inc with
  | Some st ->
      Buffer.add_string b
        (if st.Incremental.st_full_fallback then
           Printf.sprintf "incremental: full fallback (%s)\n"
             (Option.value ~default:"?" st.Incremental.st_fallback_reason)
         else
           Printf.sprintf
             "incremental: %d dirty prefix(es), %d delta row(s) spliced \
              over %d reused, %d dirty device(s)\n"
             st.Incremental.st_dirty_prefixes st.Incremental.st_delta_rows
             st.Incremental.st_reused_rows st.Incremental.st_dirty_devices)
  | None -> ());
  (match r.vr_diff_class with
  | Some cls ->
      Buffer.add_string b
        (Printf.sprintf
           "differential: plan is %s; %d intent verdict(s) carried over \
            from the base run\n"
           (Hoyan_analysis.Differential.classification_to_string cls)
           (List.length r.vr_carried))
  | None -> ());
  (match r.vr_coverage with
  | Some c ->
      Buffer.add_string b
        (Printf.sprintf "coverage: %d/%d subtasks merged%s\n" c.cov_merged
           c.cov_total
           (if r.vr_partial then
              " [PARTIAL: intent verdicts unsound over missing results]"
            else ""));
      List.iter
        (fun (id, reason) ->
          Buffer.add_string b
            (Printf.sprintf "failed subtask: %s: %s\n" id reason))
        c.cov_failed
  | None -> ());
  List.iter
    (fun (intent, verdict) ->
      match verdict with
      | Hoyan_analysis.Semantic.Needs_simulation -> ()
      | v ->
          Buffer.add_string b
            (Printf.sprintf "precheck: %s -> %s\n"
               (Intents.to_string intent)
               (Hoyan_analysis.Semantic.verdict_to_string v)))
    r.vr_precheck;
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "lint: %s\n" (Diagnostics.to_string d)))
    r.vr_lint;
  List.iter
    (fun w -> Buffer.add_string b (Printf.sprintf "plan warning: %s\n" w))
    r.vr_plan_warnings;
  List.iter
    (fun v ->
      Buffer.add_string b (Intents.violation_to_string v);
      Buffer.add_char b '\n')
    r.vr_violations;
  Buffer.contents b
