(** Incremental delta simulation (DESIGN.md §2.10; paper §1's
    production loop).

    A {!ctx} is a persistent converged-base context: the parsed base
    model, its converged global RIB (one row chunk per device,
    {!Hoyan_net.Rib}) with its BGP-only part and an index from each
    prefix to the devices holding a base BGP row on it ({!Splice.base}),
    the base FIB tries and the traffic EC context — captured once per
    base (from [Preprocess.base] or a server snapshot) and shared
    read-only across change plans.

    {!simulate} re-runs the BGP fixpoint {e only inside the dirty
    region} that [Differential] computes for the plan: the dirty prefix
    set ([Differential.dirty_set]: the plan's prefixes and every base or
    patched universe prefix a touched device can reach, closed under
    aggregate contribution in both directions) restricts the fixpoint via
    [Route_sim.run ~only], and the resulting rows are {e spliced} into
    the base RIB ({!Splice.run}).  A device is touched if it holds a
    base BGP row on a dirty prefix (read from the index), the delta has
    rows for it, or its local table changed; a touched device's chunk is
    rebuilt from its clean BGP rows, its delta rows and its patched
    local rows, and every other device keeps the base chunk itself.  The
    FIBs are the base tries patched per FIB-dirty (device, prefix) slot
    ([Traffic_sim.patch_fibs]): every dirty prefix on every device, plus
    each slot in a device's local-table symmetric difference.  A slot's
    post-change rows come from the delta rows, the patched local tables
    and, for a local-only slot, a slot lookup in the base BGP chunk —
    never from a scan of the spliced RIB.  The EC union trie is patched
    the same way ([Traffic_sim.patch_ec_ctx]).  Untouched slots keep
    sharing the base tries (sound because FIB leaves are
    order-canonical).

    Per-plan cost of a restricted plan: the dirty-set computation over
    the prefix universe, the restricted fixpoint, one index lookup per
    dirty prefix, then for the splice O(devices) plus the rows of the
    touched devices' chunks (a filter of the base chunk, a merge with
    the delta and local rows).  No step reads the rows of an untouched
    device, and {!Hoyan_net.Rib.equal}/{!Hoyan_net.Rib.diff} of the
    result against the base skip the shared chunks.

    Soundness contract: the spliced RIB is byte-identical (both are a
    canonical {!Hoyan_net.Rib.t}) to a full from-scratch simulation of
    the patched model, and the traffic result computed over the spliced
    FIBs is float-identical to a from-scratch one.  {!selfcheck} is the
    oracle; plans the engine cannot restrict (topology ops — the dirty
    universe is not enumerable) honestly fall back to a full run and are
    counted ({!stats}, [hoyan_inc_fallback_total]). *)

open Hoyan_net
module Cp := Hoyan_config.Change_plan
module Differential := Hoyan_analysis.Differential

(** The splice on its own: a base RIB indexed for it, and the rebuild
    of the touched devices' chunks. *)
module Splice : sig
  type base

  (** Index a base RIB whose local-table rows are [locals]: the
      BGP-only rows and each prefix's devices holding one.  O(|rib|),
      once per base. *)
  val capture : rib:Rib.t -> locals:Rib.t -> base

  type stats = {
    sp_rebuilt : int;  (** touched devices, whose chunks were rebuilt *)
    sp_shared : int;  (** base devices whose chunk is shared as is *)
    sp_copied : int;  (** rows in the rebuilt chunks *)
    sp_reused : int;  (** base BGP rows kept: those off the dirty set *)
  }

  (** The post-change RIB: base minus every BGP row on a [dirty]
      prefix, plus [delta], with each device in [changed] given the
      local rows [locals dev] in place of its base ones.  The touched
      devices — holders of a base BGP row on a dirty prefix, devices
      with [delta] rows, [changed] — get a rebuilt chunk
      ({!Hoyan_net.Rib.patch_slots}: only the slots of dirty BGP rows,
      delta rows and replaced local rows are rewritten; the rest of the
      chunk is copied in blocks).  Every other device's chunk is the
      base's own. *)
  val run :
    base ->
    dirty:unit Prefix.Tbl.t ->
    delta:Rib.t ->
    changed:string list ->
    locals:(string -> Route.t list) ->
    Rib.t * stats
end

type ctx

(** Capture a converged base.  [rib] must be the model's fully converged
    global RIB (BGP rows + local tables).  Forces nothing
    else; FIB tries and the EC context are built eagerly (they are the
    shared part), the rest is indexing. *)
val capture :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  model:Model.t ->
  input_routes:Route.t list ->
  flows:Flow.t list ->
  rib:Rib.t ->
  unit ->
  ctx

val base_model : ctx -> Model.t
val base_rib : ctx -> Rib.t

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
  st_dirty_devices : int;
      (** devices owning a dropped or delta row, or whose local table
          changed *)
  st_reused_rows : int;  (** base rows spliced through unchanged *)
  st_delta_rows : int;  (** rows produced by the restricted fixpoint *)
}

(** A spliced simulation: the patched model, the updated RIB, and
    lazily the spliced FIBs / EC context /
    traffic result over the context's flows.  Everything inside is
    immutable or memoized; a sim lives as long as the request that
    spliced it. *)
type sim = {
  s_model : Model.t;
  s_rib : Rib.t;
  s_dirty : Prefix.t list;
      (** the re-converged prefix set, sorted; [[]] on a full fallback *)
  s_stats : stats;
  s_fibs : Traffic_sim.fib Lazy.t;
  s_ecx : Traffic_sim.ec_ctx Lazy.t;
  s_traffic : Traffic_sim.result Lazy.t;
}

(** Run a change plan against the base context.  [d] supplies an
    already-computed differential for the same plan over the context's
    base (the verify pipeline has one); omitted, it is computed here.
    The plan is applied once, by [d]: the dirty set reads [d], and
    [s_model] is [d]'s patched input compiled by {!Model.patch}.
    [prune_dirty] artificially drops prefixes from the computed dirty
    set — an oracle-testing knob (it makes the engine unsound on purpose
    so tests can prove the {!selfcheck} oracle catches
    under-approximation); never set it in production paths. *)
val simulate :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?d:Differential.diff ->
  ?prune_dirty:(Prefix.t -> bool) ->
  ctx ->
  Cp.t ->
  sim

(** The prefix restriction for a property footprint that reads only
    [prefixes], over the context's base:
    {!Hoyan_analysis.Semantic.footprint_closure} as a [Route_sim.run
    ~only] predicate. *)
val scenario_only : ctx -> prefixes:Prefix.t list -> (Prefix.t -> bool)

(** Byte-identity oracle result. *)
type check = {
  ck_ok : bool;
  ck_rib_ok : bool;
  ck_fib_ok : bool;  (** FIB tries and the EC union trie *)
  ck_traffic_ok : bool;
  ck_stats : stats;
  ck_missing : Route.t list;  (** rows the splice lost vs the full run *)
  ck_extra : Route.t list;  (** rows the splice invented *)
}

(** Run [simulate] and an independent full from-scratch patched
    simulation, and compare: the RIBs must be equal row for row
    ({!Hoyan_net.Rib.equal}) and, unless [traffic:false],
    the patched FIBs must bind what a from-scratch [build_fibs] over the
    reference RIB binds on every device (an absent trie equals an empty
    one), the EC union trie must have the same prefixes, and link loads,
    per-flow paths and delivered/dropped/looped fractions must be
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
