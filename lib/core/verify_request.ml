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

(** What the route phase of a request did. *)
type route_run =
  | Not_run (* the stage stops before the fixpoints *)
  | Resolved (* every intent was carried over or decided statically *)
  | Full_run (* the [From_scratch] fixpoint *)
  | Spliced of Incremental.stats (* the [Splice] executor's accounting *)
  | Merged of coverage (* the [Distributed] executor's subtask coverage *)

type result = {
  vr_request : string;
  vr_ok : bool;
  vr_violations : Intents.violation list;
  vr_plan_warnings : string list;
      (** parse/delete errors from applying the plan: risk signals on
          their own (Table 6 "incorrect commands") *)
  vr_lint : Diagnostics.t list;
      (** static-analysis findings from the lint pass *)
  vr_gated : bool;
      (** the [Lint] stage found an error-severity diagnostic *)
  vr_precheck : (Intents.t * Semantic.verdict) list;
      (** the static pre-checker's verdict for every intent *)
  vr_diff : (Differential.classification * Intents.t list) option;
      (** [Diff] stage only: the plan's semantic classification and the
          intents whose base-run verdicts provably survive the change *)
  vr_route : route_run;
  vr_updated_model : Model.t;
  vr_base_rib : Rib.t;
  vr_updated_rib : Rib.t;
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

(** The simulated state is missing permanently-failed subtasks' results;
    [vr_ok] is never [true] then. *)
let partial_route = function
  | Merged c -> c.cov_merged < c.cov_total
  | Not_run | Resolved | Full_run | Spliced _ -> false

let partial (r : result) : bool = partial_route r.vr_route

(** How far a request runs: one constructor per server request class. *)
type stage = Lint | Precheck | Simulate | Diff

(** How the route phase of a request is executed. *)
type executor =
  | From_scratch (* Route_sim.run on the patched model: the reference *)
  | Splice of Incremental.ctx
      (* dirty-region re-convergence; fallbacks counted in [Spliced] *)
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
    [verify.traffic_sim] / [verify.intents]); the lint pass additionally
    journals its outcome as a [lint.gate] event. *)
let run ?tm ?(exec = From_scratch) ?(stage = Simulate)
    (base : Preprocess.base) (rq : request) : result =
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
  (* 0. lint pass over the base configs, the change plan and the
     request's RCL specs, before any fixpoint runs: the [Lint] stage
     gates on its errors, [Simulate]/[Diff] only record them *)
  let lint_diags =
    if stage = Precheck then []
    else
      Telemetry.with_span tm "verify.lint_gate" (fun () ->
          let model = base.Preprocess.b_model in
          Lint.run
            (Lint.make ~topo:model.Model.topo ~plan:rq.rq_plan
               ~specs:(lint_specs rq.rq_intents) model.Model.configs))
  in
  let gated = stage = Lint && Lint.has_errors lint_diags in
  if Telemetry.enabled tm && stage <> Precheck then
    Telemetry.event tm "lint.gate"
      [
        ("request", Journal.S rq.rq_name);
        ("diagnostics", Journal.I (List.length lint_diags));
        ("gated", Journal.B gated);
      ];
  if gated then Telemetry.count tm "hoyan_verify_gated_total" 1;
  (* 1. incremental model update, and the updated model's route inputs:
     reclaimed prefixes removed, announced ones added (one rule, shared
     with the incremental path).  The [Lint] stage stops before it. *)
  let updated_model, warnings, input_routes =
    if stage = Lint then (base.Preprocess.b_model, [], [])
    else
      let m, reports =
        Telemetry.with_span tm "verify.model_update" (fun () ->
            Model.apply_change_plan base.Preprocess.b_model rq.rq_plan)
      in
      ( m,
        plan_warnings reports,
        Differential.patched_routes rq.rq_plan base.Preprocess.b_input_routes
      )
  in
  (* 2a. differential pre-check ([Diff] only): diff base against patched
     and carry over every intent the change provably cannot affect —
     reachability intents whose prefix is outside the statically
     computed dirty region, and (on a semantic no-op) everything else
     too.  Carried intents keep their base-run verdicts; only the
     affected remainder flows into the pre-checker and the simulator
     below. *)
  let diff_info =
    if stage <> Diff then None
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
    | _ when stage = Lint -> ([], [])
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
  let vr_diff =
    Option.map (fun d -> (d.Differential.df_class, carried)) diff_info
  in
  (match vr_diff with
  | Some (cls, _) when Telemetry.enabled tm ->
      Telemetry.event tm "verify.diff"
        [
          ("request", Journal.S rq.rq_name);
          ("class", Journal.S (Differential.classification_to_string cls));
          ("carried", Journal.I (List.length carried));
          ("active", Journal.I (List.length active_intents));
        ]
  | _ -> ());
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
  (* 3. route simulation on the updated model over the patched inputs
     bound above, by the request's executor — unless every intent was
     carried over or decided statically, or the stage ([Lint],
     [Precheck]) stops before the fixpoints: whatever the pre-checker
     left open then stays open.  [Splice] re-converges only the plan's
     dirty region and splices into the converged base RIB instead of
     running the fixpoint from scratch (broad plans honestly fall back
     inside [Incremental.simulate] — see [Spliced]). *)
  let route, updated_rib, spliced =
    if stage = Lint then (Not_run, Rib.empty, None)
    else if rq.rq_intents <> [] && sim_intents = [] then (Resolved, Rib.empty, None)
    else if stage = Precheck then (Not_run, Rib.empty, None)
    else
      Telemetry.with_span tm "verify.route_sim" (fun () ->
          match exec with
          | Splice ictx ->
              let s = Incremental.simulate ~tm ?d:diff_info ictx rq.rq_plan in
              (Spliced s.Incremental.s_stats, s.Incremental.s_rib, Some s)
          | From_scratch ->
              let r = Route_sim.run ~tm updated_model ~input_routes () in
              (Full_run, r.Route_sim.rib, None)
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
              (Merged cov, phase.Framework.rp_rib, None))
  in
  let simulated =
    match route with
    | Full_run | Spliced _ | Merged _ -> true
    | Not_run | Resolved -> false
  in
  let partial = partial_route route in
  (* 4. traffic simulation (lazy: only if an intent needs it).  The
     splice path forces its lazy traffic over the patched FIBs; either
     way the forcing cost lands in [vr_traffic_seconds], not
     [vr_sim_seconds]. *)
  let updated_traffic =
    match spliced with
    | Some s -> timed_traffic (fun () -> Lazy.force s.Incremental.s_traffic)
    | None ->
        let flows = if stage = Lint then [] else base.Preprocess.b_flows in
        timed_traffic (fun () ->
            Telemetry.with_span tm "verify.traffic_sim" (fun () ->
                Traffic_sim.run ~tm updated_model ~rib:updated_rib ~flows ()))
  in
  (* 5. intent verification for whatever the pre-checker left open *)
  let base_rib = if simulated then Lazy.force base.Preprocess.b_rib else Rib.empty in
  (* partial distributed results: intent verdicts over an incomplete RIB
     would be unsound (a route missing from a failed subtask looks like a
     reachability violation — or masks one).  The default refuses to
     verify; the graceful-degradation mode verifies anyway but the result
     is [partial] and can never be [vr_ok]. *)
  let refuse_partial =
    partial
    && match exec with
       | Distributed { on_partial = `Refuse; _ } -> true
       | _ -> false
  in
  let sim_violations =
    if sim_intents = [] || refuse_partial || not simulated then []
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
  let ok = violations = [] && warnings = [] && not (gated || partial) in
  Telemetry.finish tm rq_sp;
  if Telemetry.enabled tm && stage <> Lint then
    Telemetry.event tm "verify.done"
      [
        ("request", Journal.S rq.rq_name);
        ("ok", Journal.B ok);
        ("violations", Journal.I (List.length violations));
        ("sim_skipped", Journal.B (route = Resolved));
        ("partial", Journal.B partial);
      ];
  {
    vr_request = rq.rq_name;
    vr_ok = ok;
    vr_violations = violations;
    vr_plan_warnings = warnings;
    vr_lint = lint_diags;
    vr_gated = gated;
    vr_precheck = precheck_results;
    vr_diff;
    vr_route = route;
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

(* The lines both renderers share: the differential summary, lint
   findings, plan warnings and violations with their counterexamples. *)
let add_diff b (r : result) ~suffix =
  match r.vr_diff with
  | Some (cls, carried) ->
      Buffer.add_string b
        (Printf.sprintf
           "differential: plan is %s; %d intent verdict(s) carried over%s\n"
           (Differential.classification_to_string cls)
           (List.length carried) suffix)
  | None -> ()

let add_findings b (r : result) =
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
    r.vr_violations

let report (r : result) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "=== change verification: %s ===\n" r.vr_request);
  Buffer.add_string b
    (Printf.sprintf "result: %s (%.2fs)%s%s\n"
       (if r.vr_ok then "PASS" else "FAIL")
       (total_seconds r)
       (if r.vr_gated then " [stopped by the static-analysis gate]" else "")
       (if r.vr_route = Resolved then
          " [all intents resolved statically; simulation skipped]"
        else ""));
  (match r.vr_route with
  | Spliced st ->
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
  | _ -> ());
  add_diff b r ~suffix:" from the base run";
  (match r.vr_route with
  | Merged c ->
      Buffer.add_string b
        (Printf.sprintf "coverage: %d/%d subtasks merged%s\n" c.cov_merged
           c.cov_total
           (if partial r then
              " [PARTIAL: intent verdicts unsound over missing results]"
            else ""));
      List.iter
        (fun (id, reason) ->
          Buffer.add_string b
            (Printf.sprintf "failed subtask: %s: %s\n" id reason))
        c.cov_failed
  | _ -> ());
  List.iter
    (fun (intent, verdict) ->
      match verdict with
      | Semantic.Needs_simulation -> ()
      | v ->
          Buffer.add_string b
            (Printf.sprintf "precheck: %s -> %s\n"
               (Intents.to_string intent)
               (Semantic.verdict_to_string v)))
    r.vr_precheck;
  add_findings b r;
  Buffer.contents b

(* Deterministic verdict rendering: no timings, no request name — the
   same semantic request always renders the same bytes, whichever
   tenant sent it and whether it came from the cache. *)
let body (r : result) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "verdict: %s\n" (if r.vr_ok then "PASS" else "FAIL"));
  if r.vr_gated then
    Buffer.add_string b "gated: stopped by the static-analysis gate\n";
  if r.vr_route = Resolved then
    Buffer.add_string b "simulation: skipped (resolved without the fixpoints)\n";
  add_diff b r ~suffix:"";
  List.iter
    (fun (intent, verdict) ->
      Buffer.add_string b
        (Printf.sprintf "precheck: %s -> %s\n"
           (Intents.to_string intent)
           (Semantic.verdict_to_string verdict)))
    r.vr_precheck;
  add_findings b r;
  Buffer.contents b
