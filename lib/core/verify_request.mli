(** The change-verification pipeline (the blue boxes of the paper's
    Figure 2): apply the change plan once to the pre-computed base,
    simulate routes (and, lazily, traffic), verify the formally
    specified intents, and report violations with concrete
    counterexamples. *)

open Hoyan_net

type request = {
  rq_name : string;
  rq_plan : Hoyan_config.Change_plan.t;
  rq_intents : Intents.t list;
}

(** Distributed-mode subtask coverage: how much of the split actually
    reached the merge (the framework's phase outcome contract,
    surfaced). *)
type coverage = {
  cov_total : int;
  cov_merged : int;
  cov_failed : (string * string) list;
      (** permanently-failed subtask ids with their terminal reasons *)
}

(** What the route phase of a request did. *)
type route_run =
  | Not_run  (** the stage stopped before the fixpoints *)
  | Resolved
      (** every intent was carried over or decided statically; no
          fixpoint ran *)
  | Full_run  (** the [From_scratch] fixpoint *)
  | Spliced of Hoyan_sim.Incremental.stats
      (** the [Splice] executor's dirty-region and fallback accounting *)
  | Merged of coverage  (** the [Distributed] executor's subtask coverage *)

type result = {
  vr_request : string;
  vr_ok : bool;  (** no violations and no plan-application warnings *)
  vr_violations : Intents.violation list;
  vr_plan_warnings : string list;
      (** parse/delete errors from applying the plan — risk signals on
          their own (Table 6 "incorrect commands") *)
  vr_lint : Hoyan_analysis.Diagnostics.t list;
      (** static-analysis findings from the lint pass *)
  vr_gated : bool;
      (** the [Lint] stage found an error-severity diagnostic *)
  vr_precheck : (Intents.t * Hoyan_analysis.Semantic.verdict) list;
      (** the static pre-checker's verdict for every intent *)
  vr_diff :
    (Hoyan_analysis.Differential.classification * Intents.t list) option;
      (** [Diff] stage only: the plan's semantic classification (no-op /
          local / propagating) and the intents whose base-run verdicts
          were carried over without re-simulation — the static
          differential pass proved their prefixes lie outside the
          change's dirty region *)
  vr_route : route_run;
  vr_base_rib : Rib.t;
  vr_updated_rib : Rib.t;
  vr_updated_traffic : Hoyan_sim.Traffic_sim.result Lazy.t;
  vr_sim_seconds : float;
      (** wall-clock of the eager pipeline (lint, differential, route
          fixpoint, intent checks).  Excludes the lazy traffic
          simulation — see [vr_traffic_seconds]. *)
  vr_traffic_seconds : float ref;
      (** wall-clock spent forcing [vr_updated_traffic], measured at the
          forcing site; [0.] until (unless) something forces it *)
}

(** [vr_sim_seconds] plus the traffic-forcing time accumulated so far. *)
val total_seconds : result -> float

(** Some subtasks of a [Merged] run failed permanently, so the simulated
    state misses their results; [vr_ok] is never [true] then. *)
val partial : result -> bool

(** How the route phase of a request is executed.  Every executor
    yields the same verdicts as [From_scratch]; they differ in cost and
    in what the result reports about the run. *)
type executor =
  | From_scratch
      (** [Route_sim.run] on the patched model: the reference *)
  | Splice of Hoyan_sim.Incremental.ctx
      (** re-converge only the plan's dirty region and splice into the
          context's cached base RIB/FIBs ([Spliced] reports the
          accounting; broad plans fall back to a full run inside the
          engine).  Like every executor it runs only in the route
          phase, so a request whose intents all carry over or resolve
          statically never splices. *)
  | Distributed of {
      subtasks : int;
      chaos : Hoyan_dist.Chaos.t;
      on_partial : [ `Refuse | `Degrade ];
    }
      (** through the distributed framework (master/MQ/workers) split
          into [subtasks], with [chaos] injecting faults; the route
          phase's outcome contract is surfaced as [Merged].  When
          subtasks failed permanently the result is partial, and
          [on_partial] picks the policy: [`Refuse] withholds intent
          verdicts over the incomplete RIB (no simulated violations are
          reported, and [vr_ok = false]); [`Degrade] verifies anyway but
          the result is {!partial} — a partial result is never
          [vr_ok]. *)

(** How far a request runs.  Each constructor is one request class of
    the verification server ({!Hoyan_server.Server}); the two that
    simulate carry the executor of their route phase:

    {v
    stage       lint pass            plan applied  carry-over  pre-checker  route phase
    Lint        yes; gates on errors yes           no          no           no
    Precheck    no                   yes           no          yes          no
    Simulate e  yes; recorded only   yes           no          yes          yes, by e
    Diff e      yes; recorded only   yes           yes         yes          yes, by e
    v}

    Under [Precheck], intents the pre-checker left [Needs_simulation]
    stay open: the verdict covers only the statically decided part. *)
type stage = Lint | Precheck | Simulate of executor | Diff of executor

(** A request with its plan applied: the request's one
    {!Hoyan_analysis.Differential.diff} over the base input.  Every stage
    reads it, and so does the server's cache key
    ({!Hoyan_server.Request.key}). *)
type prepared = private {
  pr_base : Preprocess.base;
  pr_request : request;
  pr_diff : Hoyan_analysis.Differential.diff;
  pr_seconds : float;  (** wall-clock of the application *)
}

(** Apply the request's plan once, by one
    {!Hoyan_analysis.Differential.diff} over the base configs and
    topology (span [verify.diff]).  No fixpoint runs and nothing is
    compiled: the diff's graphs and dirty set are lazy. *)
val prepare :
  ?tm:Hoyan_telemetry.Telemetry.t -> Preprocess.base -> request -> prepared

(** Run a prepared request as far as [stage] (default
    [Simulate From_scratch]) goes.  The lint pass lints the diff's
    patched network with the request's RCL specs: the diff's
    application steps give the plan findings (HOY012–HOY014, by
    {!Hoyan_analysis.Lint.plan_diags}, the rule [hoyan diff] uses too)
    and its patched configs the configuration checks.  Under {!Lint} an
    error-severity diagnostic fails the request and nothing else runs;
    under {!Simulate} and {!Diff} the findings are only recorded.  [tm]
    (default: the process-global telemetry handle) receives per-phase
    spans and gate events.

    Every other stage runs one sequence over the one patched network:
    + the diff's application issues are [vr_plan_warnings], and the
      steps below all read the diff.  [cp_withdraw] prefixes leave the
      route inputs and [cp_new_routes] join them;
    + carry over ({!Diff} only): every reachability intent whose prefix
      provably lies outside the diff's dirty region — and, on a semantic
      no-op, every intent — keeps its base-run verdict (listed in
      [vr_diff]) and is evaluated against the cached base state;
    + pre-check the rest on the diff's patched control-plane graph
      ({!Hoyan_analysis.Semantic}): refuted intents become violations
      with a static witness;
    + the route phase by the executor ({!Precheck} has none), skipped
      when every intent of a non-empty request was carried over or
      decided ([vr_route = Resolved]).  It alone compiles the patched
      model ([Model.patch], keeping the base's modelling choices):
      [From_scratch] and [Distributed] from the diff's patched configs
      and topology, [Splice] inside [Incremental.simulate];
    + check the intents left open.  Traffic is simulated only when a
      traffic-level intent (or the caller) forces it.

    [vr_sim_seconds] includes the application's [pr_seconds]. *)
val execute :
  ?tm:Hoyan_telemetry.Telemetry.t -> ?stage:stage -> prepared -> result

(** [execute] after [prepare]: one change-verification request against
    the pre-processed base. *)
val run :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?stage:stage ->
  Preprocess.base ->
  request ->
  result

(** The deterministic verdict body, and the only renderer of a
    verdict's lines (verdict, gate, simulation skip, carry-over,
    pre-check, lint, plan warnings, violations with their
    counterexamples): no timings and no request name, so the same
    semantic request always renders the same bytes.  The server's
    responses carry it. *)
val body : result -> string

(** Human-readable report: a header (request name, wall time, and the
    splice or subtask-coverage accounting of the route run) followed by
    {!body}. *)
val report : result -> string
