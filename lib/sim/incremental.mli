(** Incremental delta simulation (DESIGN.md §2.10; paper §1's
    production loop).

    A {!ctx} is a persistent converged-base context: the parsed base
    model, its converged global RIB split into an arena-indexed BGP part
    ({!Hoyan_net.Rib.Arena} over a {!Hoyan_net.Rib.Key} universe of the
    base rows) and the local tables, the base FIB tries and the traffic
    EC context — captured once per base (from [Preprocess.base] or a
    server snapshot) and shared read-only across change plans.

    {!simulate} re-runs the BGP fixpoint {e only inside the dirty
    region} that [Differential] computes for the plan: the dirty prefix
    set (every universe prefix [Differential.prefix_affected] flags,
    closed under aggregate contribution in both directions) restricts
    the fixpoint via [Route_sim.run ~only], and the resulting rows are
    {e spliced} into the cached arena: the dirty set becomes a byte mask
    over the {!Hoyan_net.Rib.Key} prefix ids, [Rib.Arena.drop_prefixes]
    cuts the dirty rows out of the base arena by testing each packed
    key's prefix digit against it (reporting the dropped rows' devices),
    the delta rows take their place and the local tables are swapped for
    the patched model's.  FIB tries are rebuilt only for dirty devices
    ([Traffic_sim.rebuild_fibs]); clean devices share the base tries
    (sound because FIB leaves are order-canonical).

    Per-plan cost of a restricted plan: the dirty-set computation over
    the prefix universe, the restricted fixpoint, one int test per base
    row plus work proportional to the dirty rows for the cut, and then
    the canonical list build of [Rib.Arena.merge] — the one remaining
    O(|RIB|) step.

    Soundness contract: the spliced RIB is byte-identical (as a
    canonically sorted row list) to a full from-scratch simulation of
    the patched model, and the traffic result computed over the spliced
    FIBs is float-identical to a from-scratch one.  {!selfcheck} is the
    oracle; plans the engine cannot restrict (topology ops — the dirty
    universe is not enumerable) honestly fall back to a full run and are
    counted ({!stats}, [hoyan_inc_fallback_total]). *)

open Hoyan_net
module Cp := Hoyan_config.Change_plan
module Differential := Hoyan_analysis.Differential

type ctx

(** Capture a converged base.  [rib] must be the model's fully converged
    global RIB (BGP rows + local tables, any order).  Forces nothing
    else; FIB tries and the EC context are built eagerly (they are the
    shared part), the rest is indexing. *)
val capture :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  model:Model.t ->
  input_routes:Route.t list ->
  flows:Flow.t list ->
  rib:Route.t list ->
  unit ->
  ctx

val base_model : ctx -> Model.t
val base_rib : ctx -> Route.t list

(** The shared base FIB tries and traffic EC context (read-only; what
    clean devices reuse across plans). *)
val base_fibs : ctx -> Traffic_sim.fib

val base_ec_ctx : ctx -> Traffic_sim.ec_ctx

(** Per-plan outcome accounting (honest counters for the bench and the
    server's telemetry). *)
type stats = {
  st_class : Differential.classification;
  st_full_fallback : bool;  (** the plan was too broad; a full run ran *)
  st_fallback_reason : string option;
  st_dirty_prefixes : int;  (** prefixes re-converged *)
  st_dirty_devices : int;  (** devices whose FIB tries were rebuilt *)
  st_reused_rows : int;  (** base rows spliced through unchanged *)
  st_delta_rows : int;  (** rows produced by the restricted fixpoint *)
}

(** A spliced simulation: the patched model, the canonical updated RIB
    (sorted with [Route.compare], deduplicated — the order
    [Rib.Arena.merge] emits), and lazily the spliced FIBs / EC context /
    traffic result over the context's flows.  Reusable across requests
    for the same (snapshot, plan): everything inside is immutable or
    memoized. *)
type sim = {
  s_plan : Cp.t;
  s_model : Model.t;
  s_reports : Cp.apply_report list;
  s_diff : Differential.diff;
  s_rib : Route.t list;
  s_dirty : Prefix.t list;
      (** the re-converged prefix set, sorted; [[]] on a full fallback *)
  s_stats : stats;
  s_fibs : Traffic_sim.fib Lazy.t;
  s_ecx : Traffic_sim.ec_ctx Lazy.t;
  s_traffic : Traffic_sim.result Lazy.t;
}

(** Run a change plan against the base context.  [d] supplies an
    already-computed differential for the same plan (the verify pipeline
    has one); omitted, it is computed here.  [prune_dirty] artificially
    drops prefixes from the computed dirty set — an oracle-testing knob
    (it makes the engine unsound on purpose so tests can prove the
    {!selfcheck} oracle catches under-approximation); never set it in
    production paths. *)
val simulate :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?d:Differential.diff ->
  ?prune_dirty:(Prefix.t -> bool) ->
  ctx ->
  Cp.t ->
  sim

(** The prefix restriction for a failure scenario whose property
    footprint reads only [prefixes]: the footprint set closed under
    aggregate contribution over the base universe.  [Kfailure] passes
    the result to [Route_sim.run ~only] on the failed model — per-prefix
    decomposability of the fixpoint makes the restricted run converge
    exactly the footprint's rows, without re-converging the rest of the
    WAN per scenario. *)
val scenario_only : ctx -> prefixes:Prefix.t list -> (Prefix.t -> bool)

(** Byte-identity oracle result. *)
type check = {
  ck_ok : bool;
  ck_rib_ok : bool;
  ck_traffic_ok : bool;
  ck_stats : stats;
  ck_missing : Route.t list;  (** rows the splice lost vs the full run *)
  ck_extra : Route.t list;  (** rows the splice invented *)
}

(** Run [simulate] and an independent full from-scratch patched
    simulation, and compare: canonical RIB row lists must be equal
    ([Route.compare]-identical row for row) and, unless [traffic:false],
    link loads and per-flow delivered/dropped/looped fractions must be
    float-identical. *)
val selfcheck :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?traffic:bool ->
  ?prune_dirty:(Prefix.t -> bool) ->
  ctx ->
  Cp.t ->
  check

(** Cumulative context counters: (simulates, full fallbacks). *)
val counters : ctx -> int * int
