(** The change-verification pipeline (the blue boxes of Figure 2).

    Given a change plan, Hoyan (1) applies the commands once to the
    pre-computed base network — one [Differential.diff], the request's
    one pre/post pair — and compiles the updated model only in the route
    step that simulates it, (2) runs route simulation on the
    pre-computed input routes (plus any new routes the plan announces),
    (3) runs traffic simulation on the pre-stored input flows, and (4)
    checks the formally specified intents against the simulated RIBs,
    flow paths, and traffic loads, emitting concrete counterexamples on
    violation. *)

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

(* The types are documented in the interface. *)
type coverage = {
  cov_total : int;
  cov_merged : int;
  cov_failed : (string * string) list;
}

type route_run =
  | Not_run
  | Resolved
  | Full_run
  | Spliced of Incremental.stats
  | Merged of coverage

type result = {
  vr_request : string;
  vr_ok : bool;
  vr_violations : Intents.violation list;
  vr_plan_warnings : string list;
  vr_lint : Diagnostics.t list;
  vr_gated : bool;
  vr_precheck : (Intents.t * Semantic.verdict) list;
  vr_diff : (Differential.classification * Intents.t list) option;
  vr_route : route_run;
  vr_base_rib : Rib.t;
  vr_updated_rib : Rib.t;
  vr_updated_traffic : Traffic_sim.result Lazy.t;
  vr_sim_seconds : float;
  vr_traffic_seconds : float ref;
}

let total_seconds (r : result) : float =
  r.vr_sim_seconds +. !(r.vr_traffic_seconds)

let partial_route = function
  | Merged c -> c.cov_merged < c.cov_total
  | Not_run | Resolved | Full_run | Spliced _ -> false

let partial (r : result) : bool = partial_route r.vr_route

type executor =
  | From_scratch
  | Splice of Incremental.ctx
  | Distributed of {
      subtasks : int;
      chaos : Hoyan_dist.Chaos.t;
      on_partial : [ `Refuse | `Degrade ];
    }

type stage = Lint | Precheck | Simulate of executor | Diff of executor

let plan_warnings (reports : Cp.apply_report list) : string list =
  List.concat_map
    (fun (r : Cp.apply_report) ->
      List.map
        (fun (i : Cp.line_issue) ->
          Printf.sprintf "%s: %s" r.Cp.ar_device (Cp.issue_to_string i))
        r.Cp.ar_issues)
    reports

(* The RCL specs among the request's intents, for the lint pass. *)
let lint_specs (intents : Intents.t list) : (string * string) list =
  List.concat
    (List.mapi
       (fun i -> function
         | Intents.Route_change spec -> [ (Printf.sprintf "intent-%d" i, spec) ]
         | _ -> [])
       intents)

(* 0. The lint pass over the request's patched network and RCL specs,
   before any fixpoint runs, journalled as a [lint.gate] event: the
   diff's application steps give the plan findings (HOY012-HOY014) and
   its patched input the configuration checks.  Under [gate] (the [Lint]
   stage) an error-severity finding fails the request; the simulating
   stages only record the findings. *)
let lint_pass tm (d : Differential.diff) (rq : request) ~gate =
  let diags =
    Telemetry.with_span tm "verify.lint_gate" (fun () ->
        Lint.run_applied ~base:d.Differential.df_base_input
          d.Differential.df_plan d.Differential.df_steps
          {
            d.Differential.df_patched_input with
            Lint.li_specs = lint_specs rq.rq_intents;
          })
  in
  let gated = gate && Lint.has_errors diags in
  if Telemetry.enabled tm then
    Telemetry.event tm "lint.gate"
      [
        ("request", Journal.S rq.rq_name);
        ("diagnostics", Journal.I (List.length diags));
        ("gated", Journal.B gated);
      ];
  if gated then Telemetry.count tm "hoyan_verify_gated_total" 1;
  (diags, gated)

(* 2a. The carry-over ([Diff] only): every intent the request's diff
   proves the change cannot affect — reachability intents whose prefix
   is outside the statically computed dirty region, and (on a semantic
   no-op) everything else too.  Returns the carried intents and the
   affected remainder, which alone flows into the pre-checker and the
   simulator. *)
let carry_over tm (base : Preprocess.base) (d : Differential.diff)
    (rq : request) =
  let carried, active =
    List.partition
      (fun intent ->
        match intent with
        | Intents.Route_reach { rr_prefix; _ } ->
            Differential.carries_over ~tm d
              ~input_routes:base.Preprocess.b_input_routes rr_prefix
        | _ -> d.Differential.df_class = Differential.No_op)
      rq.rq_intents
  in
  if Telemetry.enabled tm then
    Telemetry.event tm "verify.diff"
      [
        ("request", Journal.S rq.rq_name);
        ( "class",
          Journal.S
            (Differential.classification_to_string d.Differential.df_class) );
        ("carried", Journal.I (List.length carried));
        ("active", Journal.I (List.length active));
      ];
  (carried, active)

(* 2b. The static intent pre-check on the patched network: classify
   each reachability intent against the diff's patched control-plane
   graph (per-prefix closures are shared across the batch); anything the
   pre-checker has no theory for is left [Needs_simulation]. *)
let precheck tm (d : Differential.diff) ~input_routes (rq : request) active =
  let results =
    Telemetry.with_span tm "verify.precheck" (fun () ->
        let g = Lazy.force d.Differential.df_patched_graph in
        let reach =
          List.concat
            (List.mapi
               (fun i -> function
                 | Intents.Route_reach { rr_prefix; rr_devices; rr_expect } ->
                     [
                       {
                         Semantic.ri_name = Printf.sprintf "intent-%d" i;
                         ri_prefix = rr_prefix;
                         ri_devices = rr_devices;
                         ri_expect = rr_expect;
                       };
                     ]
                 | _ -> [])
               active)
        in
        (* the batch's verdicts come back in order, one per reach intent *)
        let verdicts = ref (Semantic.precheck_batch ~tm g ~input_routes reach) in
        List.map
          (fun intent ->
            match (intent, !verdicts) with
            | Intents.Route_reach _, (_, v) :: rest ->
                verdicts := rest;
                (intent, v)
            | _ -> (intent, Semantic.Needs_simulation))
          active)
  in
  if Telemetry.enabled tm then begin
    let count p = List.length (List.filter (fun (_, v) -> p v) results) in
    let resolved = count (fun v -> v <> Semantic.Needs_simulation) in
    Telemetry.count tm "hoyan_precheck_resolved_total" resolved;
    Telemetry.event tm "verify.precheck"
      [
        ("request", Journal.S rq.rq_name);
        ("intents", Journal.I (List.length active));
        ("resolved", Journal.I resolved);
        ( "refuted",
          Journal.I
            (count (function Semantic.Refuted _ -> true | _ -> false)) );
      ]
  end;
  results

(* Traffic over a RIB of the updated model, under its own span; lazy, so
   only an intent (or a caller) that needs it pays. *)
let traffic_over tm (m : Model.t Lazy.t) ~flows rib =
  lazy
    (let m = Lazy.force m in
     Telemetry.with_span tm "verify.traffic_sim" (fun () ->
         Traffic_sim.run ~tm m ~rib ~flows ()))

(* 3. The route phase over the patched inputs, by the request's
   executor: the route run, the updated model, the updated RIB and the
   lazy traffic over it.  [patched] is the diff's patched network
   compiled on first use; [From_scratch] and [Distributed] force it,
   while [Splice] takes its model from [Incremental.simulate], which
   compiles the same input itself, re-converges only the plan's dirty
   region and splices into the converged base RIB and FIBs (broad plans
   honestly fall back inside it — see [Spliced]). *)
let route_step tm (patched : Model.t Lazy.t) ~input_routes ~flows ~d
    (rq : request) = function
  | Splice ictx ->
      let s = Incremental.simulate ~tm ~d ictx rq.rq_plan in
      ( Spliced s.Incremental.s_stats,
        Lazy.from_val s.Incremental.s_model,
        s.Incremental.s_rib,
        s.Incremental.s_traffic )
  | From_scratch ->
      let m = Lazy.force patched in
      let rib = (Route_sim.run ~tm m ~input_routes ()).Route_sim.rib in
      (Full_run, patched, rib, traffic_over tm patched ~flows rib)
  | Distributed { subtasks; chaos; _ } ->
      let fw = Framework.create ~tm ~chaos (Lazy.force patched) in
      let phase = Framework.run_route_phase ~subtasks fw ~input_routes in
      let failed = phase.Framework.rp_failed in
      let cov =
        {
          cov_total = List.length phase.Framework.rp_subtasks;
          cov_merged =
            List.length phase.Framework.rp_subtasks - List.length failed;
          cov_failed =
            List.map
              (fun (f : Framework.subtask_failure) ->
                (f.Framework.sf_id, f.Framework.sf_reason))
              failed;
        }
      in
      let rib = phase.Framework.rp_rib in
      (Merged cov, patched, rib, traffic_over tm patched ~flows rib)

(* The request's one patched network: the plan applied to the base by
   one differential.  Its steps are the plan findings and warnings, its
   patched graph the pre-checker's, its dirty region the carry-over's
   and the splice's, and a server hashes it into the cache key. *)
type prepared = {
  pr_base : Preprocess.base;
  pr_request : request;
  pr_diff : Differential.diff;
  pr_seconds : float;
}

let prepare ?tm (base : Preprocess.base) (rq : request) : prepared =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let t0 = Unix.gettimeofday () in
  let model = base.Preprocess.b_model in
  let d =
    Telemetry.with_span tm "verify.diff" (fun () ->
        Differential.diff ~tm
          (Lint.make ~topo:model.Model.topo model.Model.configs)
          rq.rq_plan)
  in
  {
    pr_base = base;
    pr_request = rq;
    pr_diff = d;
    pr_seconds = Unix.gettimeofday () -. t0;
  }

(** Run one prepared change-verification request.  Each pipeline phase
    runs under its own telemetry span ([verify.lint_gate] /
    [verify.precheck] / [verify.route_sim], with [verify.model_update]
    inside it / [verify.traffic_sim] / [verify.intents]; the plan's
    application is [prepare]'s [verify.diff]).  The stage is matched
    once: [Lint] returns after the lint gate; every other stage runs the
    one sequence below, which [Precheck] (no executor) leaves before the
    route phase. *)
let execute ?tm ?(stage = Simulate From_scratch) (p : prepared) : result =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let base = p.pr_base and rq = p.pr_request and d = p.pr_diff in
  let rq_sp =
    Telemetry.span tm ~args:[ ("request", rq.rq_name) ] "verify.request"
  in
  let t0 = Unix.gettimeofday () in
  (* traffic simulation is lazy and usually forced after [vr_sim_seconds]
     stops counting — time the forcing site so the cost is attributed
     somewhere ([vr_traffic_seconds] + a metric) instead of vanishing *)
  let traffic_seconds = ref 0. in
  let timed (traffic : Traffic_sim.result Lazy.t) =
    lazy
      (let tt0 = Unix.gettimeofday () in
       let r = Lazy.force traffic in
       let dt = Unix.gettimeofday () -. tt0 in
       traffic_seconds := !traffic_seconds +. dt;
       Telemetry.observe tm "hoyan_verify_traffic_seconds" dt;
       r)
  in
  (* the plan's application plus elapsed, minus whatever the intent
     checks spent forcing traffic: the traffic cost lives in
     [vr_traffic_seconds] only, whether the lazy was forced here or later
     by the caller *)
  let sim_seconds () =
    p.pr_seconds +. Unix.gettimeofday () -. t0 -. !traffic_seconds
  in
  let model = base.Preprocess.b_model in
  let sequence ~lint ~carry exec =
    (* 1. the diff's application issues are the plan warnings; the
       patched route inputs have reclaimed prefixes removed and announced
       ones added (one rule, shared with the incremental path).  The
       patched model is compiled only by a route step that needs it. *)
    let warnings =
      plan_warnings (List.map Cp.step_report d.Differential.df_steps)
    in
    let patched =
      lazy
        (Telemetry.with_span tm "verify.model_update" (fun () ->
             let pi = d.Differential.df_patched_input in
             Model.patch model ?topo:pi.Lint.li_topo pi.Lint.li_configs))
    in
    let input_routes =
      Differential.patched_routes rq.rq_plan base.Preprocess.b_input_routes
    in
    let flows = base.Preprocess.b_flows in
    (* 2a. carry-over ([Diff] only); carried intents are re-evaluated
       against the (cached) base state: their verdicts are by
       construction the base run's verdicts *)
    let carried, active =
      if carry then carry_over tm base d rq else ([], rq.rq_intents)
    in
    let carried_violations =
      if carried = [] then []
      else
        Telemetry.with_span tm "verify.carryover" (fun () ->
            let brib = Lazy.force base.Preprocess.b_rib in
            List.concat_map
              (fun intent ->
                Intents.verify intent ~model ~base_rib:brib ~updated_rib:brib
                  ~base_traffic:base.Preprocess.b_traffic
                  ~updated_traffic:base.Preprocess.b_traffic)
              carried)
    in
    (* 2b. pre-check: refuted intents become violations with a static
       witness; only the undecided remainder needs the fixpoints *)
    let prechecked =
      if active = [] then [] else precheck tm d ~input_routes rq active
    in
    let static_violations =
      List.filter_map
        (function
          | intent, Semantic.Refuted why ->
              Some (Intents.violation intent ("statically refuted: " ^ why))
          | _ -> None)
        prechecked
    in
    let sim_intents =
      if prechecked = [] then active
      else
        List.filter_map
          (function
            | intent, Semantic.Needs_simulation -> Some intent | _ -> None)
          prechecked
    in
    (* 3. route phase — skipped when every intent was carried over or
       decided statically, and never run without an executor
       ([Precheck]): whatever the pre-checker left open then stays
       open *)
    let unrouted run =
      (run, patched, Rib.empty, traffic_over tm patched ~flows Rib.empty)
    in
    let route, updated_model, updated_rib, traffic =
      if rq.rq_intents <> [] && sim_intents = [] then unrouted Resolved
      else
        match exec with
        | None -> unrouted Not_run
        | Some exec ->
            Telemetry.with_span tm "verify.route_sim" (fun () ->
                route_step tm patched ~input_routes ~flows ~d rq exec)
    in
    let updated_traffic = timed traffic in
    let simulated =
      match route with
      | Full_run | Spliced _ | Merged _ -> true
      | Not_run | Resolved -> false
    in
    let partial = partial_route route in
    (* 4. intent verification for whatever the pre-checker left open.
       Over a partial distributed result the verdicts would be unsound (a
       route missing from a failed subtask looks like a reachability
       violation — or masks one): [`Refuse] withholds them; [`Degrade]
       verifies anyway, but the result is [partial] and never [vr_ok]. *)
    let base_rib =
      if simulated then Lazy.force base.Preprocess.b_rib else Rib.empty
    in
    let refuse_partial =
      partial
      &&
      match exec with
      | Some (Distributed { on_partial = `Refuse; _ }) -> true
      | _ -> false
    in
    let sim_violations =
      if sim_intents = [] || refuse_partial || not simulated then []
      else
        Telemetry.with_span tm "verify.intents" (fun () ->
            let model = Lazy.force updated_model in
            List.concat_map
              (fun intent ->
                Intents.verify intent ~model ~base_rib ~updated_rib
                  ~base_traffic:base.Preprocess.b_traffic ~updated_traffic)
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
          ("sim_skipped", Journal.B (route = Resolved));
          ("partial", Journal.B partial);
        ];
    {
      vr_request = rq.rq_name;
      vr_ok = ok;
      vr_violations = violations;
      vr_plan_warnings = warnings;
      vr_lint = lint;
      vr_gated = false;
      vr_precheck = prechecked;
      vr_diff =
        (if carry then Some (d.Differential.df_class, carried) else None);
      vr_route = route;
      vr_base_rib = base_rib;
      vr_updated_rib = updated_rib;
      vr_updated_traffic = updated_traffic;
      vr_sim_seconds = sim_seconds ();
      vr_traffic_seconds = traffic_seconds;
    }
  in
  match stage with
  | Lint ->
      let lint, gated = lint_pass tm d rq ~gate:true in
      Telemetry.finish tm rq_sp;
      {
        vr_request = rq.rq_name;
        vr_ok = not gated;
        vr_violations = [];
        vr_plan_warnings = [];
        vr_lint = lint;
        vr_gated = gated;
        vr_precheck = [];
        vr_diff = None;
        vr_route = Not_run;
        vr_base_rib = Rib.empty;
        vr_updated_rib = Rib.empty;
        vr_updated_traffic =
          timed (traffic_over tm (Lazy.from_val model) ~flows:[] Rib.empty);
        vr_sim_seconds = sim_seconds ();
        vr_traffic_seconds = traffic_seconds;
      }
  | Precheck -> sequence ~lint:[] ~carry:false None
  | Simulate exec ->
      sequence ~lint:(fst (lint_pass tm d rq ~gate:false)) ~carry:false
        (Some exec)
  | Diff exec ->
      sequence ~lint:(fst (lint_pass tm d rq ~gate:false)) ~carry:true
        (Some exec)

let run ?tm ?stage (base : Preprocess.base) (rq : request) : result =
  execute ?tm ?stage (prepare ?tm base rq)

(* Deterministic verdict rendering: no timings, no request name — the
   same semantic request always renders the same bytes, whichever
   tenant sent it and whether it came from the cache.  The one place a
   verdict's lines are rendered. *)
let body (r : result) : string =
  let b = Buffer.create 256 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "verdict: %s" (if r.vr_ok then "PASS" else "FAIL");
  if r.vr_gated then line "gated: stopped by the static-analysis gate";
  if r.vr_route = Resolved then
    line "simulation: skipped (resolved without the fixpoints)";
  Option.iter
    (fun (cls, carried) ->
      line "differential: plan is %s; %d intent verdict(s) carried over"
        (Differential.classification_to_string cls)
        (List.length carried))
    r.vr_diff;
  List.iter
    (fun (intent, verdict) ->
      line "precheck: %s -> %s" (Intents.to_string intent)
        (Semantic.verdict_to_string verdict))
    r.vr_precheck;
  List.iter (fun d -> line "lint: %s" (Diagnostics.to_string d)) r.vr_lint;
  List.iter (fun w -> line "plan warning: %s" w) r.vr_plan_warnings;
  List.iter
    (fun v -> line "%s" (Intents.violation_to_string v))
    r.vr_violations;
  Buffer.contents b

(* The human-readable report: a header (request name, wall time, and
   the splice or coverage accounting of the route run) over {!body}. *)
let report (r : result) : string =
  let b = Buffer.create 256 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "=== change verification: %s ===" r.vr_request;
  line "time: %.2fs" (total_seconds r);
  (match r.vr_route with
  | Spliced st when st.Incremental.st_full_fallback ->
      line "incremental: full fallback (%s)"
        (Option.value ~default:"?" st.Incremental.st_fallback_reason)
  | Spliced st ->
      line
        "incremental: %d dirty prefix(es), %d delta row(s) spliced over %d \
         reused, %d dirty device(s)"
        st.Incremental.st_dirty_prefixes st.Incremental.st_delta_rows
        st.Incremental.st_reused_rows st.Incremental.st_dirty_devices
  | Merged c ->
      line "coverage: %d/%d subtasks merged%s" c.cov_merged c.cov_total
        (if partial r then
           " [PARTIAL: intent verdicts unsound over missing results]"
         else "");
      List.iter (fun (id, reason) -> line "failed subtask: %s: %s" id reason)
        c.cov_failed
  | Not_run | Resolved | Full_run -> ());
  Buffer.add_string b (body r);
  Buffer.contents b
