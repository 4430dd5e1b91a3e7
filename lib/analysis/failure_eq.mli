(** Static failure-equivalence analysis for exhaustive k-failure
    verification (paper §6.2; ROADMAP "exhaustive what-if exploration").

    Brute-force fault-tolerance checking simulates every ≤k-failure
    topology.  This module statically groups the failure scenarios into
    classes whose simulations provably coincide on the slice of the
    network a property can observe, so the sweep simulates one
    representative per class — following Plankton's
    equivalence/partial-order reduction and ACORN's abstraction ideas
    (PAPERS.md) on top of the PR4 control-plane closure.

    {2 The slice argument}

    Fix a property footprint: the set [P] of prefixes and the monitored
    devices [D] whose route state the property reads ({!footprint}).
    The {e relevant} prefixes [R] are [P] closed under aggregate
    contribution in both directions over the prefix universe
    ({!Semantic.footprint_closure}): the BGP fixpoint couples prefixes
    only through aggregation, so [P]'s route state is a function of
    [R]'s, and [R] is exactly the set [Kfailure.check] restricts every
    fixpoint to.  Let [region(p)] be the PR4 closure of [p] — the
    over-approximate set of devices any execution can deliver [p] to,
    including every origin.

    The {e influence slice} [U] is the union of the regions of [R]
    narrowed to
    the devices that can affect what [D] observes: the backward closure
    of [D] over session edges that are not provably AS-loop-blocked.
    An edge [u -> d] is provably blocked when it is eBGP and [d]'s ASN
    is in every AS path any route for [R] can have at [u] (a
    decreasing-intersection dataflow from the origins; an eBGP hop adds
    the sender's ASN unless an AS-path-overwriting policy plus the
    [adding_own_asn] VSB could suppress it) — the simulator's loop
    check then drops every such arrival.  A device behind such a
    boundary (e.g. a single-homed stub AS) can receive [p] but never
    transmit anything back, so its state — and any failure visible
    only to it — is irrelevant to the property.  Failures only remove
    propagation paths, so blocked edges stay blocked in every scenario.

    The [R]-restricted outcome of a simulation at the devices of [U]
    (which routes for [R] they hold) is a function of, only:

    - the configs of the devices in [U] (failures never edit configs);
    - which devices of [U] are removed;
    - the up-state of each intra-slice BGP session (both endpoints in
      [U]), decided by the simulator's own {!Hoyan_proto.Bgp.session_live}
      on the failed topology.  Sessions toward devices outside [U] only
      feed state the property provably never observes;
    - each [U]-device's IGP cost row restricted to the candidate
      next-hop owners — the only addresses the BGP decision process
      reads costs for ([d_igp_cost] at a route's next hop): owners of
      input-route and static-route next hops for [R], [Set_nexthop]
      policy targets, eBGP/next-hop-self exporters inside the slice
      (they rewrite next hops to their own session addresses), and
      loopback owners whose host route is itself a relevant prefix.
      Locally originated routes carry no next hop (constant cost 0);
      ownerless external addresses resolve through config-only rules —
      both constant under every scenario;
    - whether each SR policy of a [U]-device resolves
      (a {!Hoyan_proto.Sr.path}; the BGP decision process reads only
      resolution success, via the "IGP cost for SR" VSB);
    - the injected input routes (failure-independent).

    Devices outside the forward closure can never carry [R] (the
    closure is an over-approximation that failures only shrink), and
    devices outside the backward closure can never transmit toward [D],
    so their state is irrelevant to the property.  The per-scenario
    {e fingerprint} is exactly the tuple above, so:

    {e fingerprint equality ⇒ identical property-restricted route state
    ⇒ identical verdict.}

    {2 The three pruning tiers}

    + {b Irrelevance} — a scenario whose fingerprint equals the
      no-failure fingerprint leaves the property's slice untouched; the
      base verdict carries with zero simulation.  (This is the
      "dirty region disjoint from the footprint" test: any overlap
      shows up as a changed row, up-bit or removal marker.)
    + {b Equivalence} — scenarios with identical fingerprints form a
      class; one representative simulates and its verdict replicates to
      the members.
    + {b Independence reduction for k≥2} — classes are formed across
      scenario sizes, so a pair whose joint fingerprint equals a single
      failure's fingerprint (the other failure is independent of the
      slice) collapses into the smaller scenario's class — the
      partial-order reduction.  Note deliberately {e not} implemented as
      "regions disjoint ⇒ compose": two individually-innocuous link
      failures can jointly reroute IGP paths that each alone leaves
      intact, so the joint fingerprint is computed from the jointly
      failed topology.  On top, an articulation/cut analysis over the
      control-plane session graph statically proves
      definite-disconnection counterexamples ({!Static_violation})
      without any fixpoint: if, in the {e permissive} session graph
      (every surviving session edge passes, policies ignored), a
      monitored device is unreachable from every surviving origin, the
      prefix is definitely absent there — the permissive graph
      over-approximates deliverability and origins only shrink under
      failure.

    Each tier's machine check is the brute-force-vs-pruned oracle in
    [test/test_kfailure.ml]: identical violation sets on generated
    topologies for k ∈ {1,2}. *)

open Hoyan_net

(** A candidate failure: one link or one device down. *)
type failure = Link_down of string * string | Device_down of string

val failure_to_string : failure -> string

(** The change-plan topology op that injects a failure. *)
val topo_op : failure -> Hoyan_config.Change_plan.topo_op

(** What a property can observe, as declared by its author.

    - [Reach_all (p, devs)]: the property holds iff prefix [p] is
      present on every device of [devs]; enables all three tiers
      including the cut analysis.
    - [Prefix_scoped (ps, devs)]: the property reads only route rows
      [(d, p)] with [p ∈ ps] (and [devs] names the devices it cares
      about, for reporting); enables tiers 1–2.
    - [Opaque]: no static knowledge (e.g. traffic/utilization
      properties, whose verdict can change even under byte-identical
      RIBs when a removed link reroutes flows); every scenario
      simulates. *)
type footprint =
  | Reach_all of Prefix.t * string list
  | Prefix_scoped of Prefix.t list * string list
  | Opaque

(** Accumulator-based k-combinations in lexicographic (input) order —
    no quadratic list append. *)
val combinations : int -> 'a list -> 'a list list

(** All candidate single failures of a topology: links (deduplicated,
    [src < dst]) and/or devices. *)
val candidates :
  ?devices:bool -> ?links:bool -> Topology.t -> failure list

(** The analysis context: the semantic graph, its topology, and the
    per-prefix closure memo shared across the whole candidate set. *)
type t

(** Build a context.  The semantic graph must carry a topology
    ([Lint.input] built with [~topo]); raises [Invalid_argument]
    otherwise.  [te_aware] must match the model under test so the
    fingerprint IGP rows agree with the simulator's. *)
val create :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?te_aware:bool ->
  Semantic.t ->
  input_routes:Route.t list ->
  t

(** The memoized closure region of one prefix (topology members only). *)
val region : t -> Prefix.t -> string list

(** Per-class decision. *)
type decision =
  | Carry_base  (** tier 1: fingerprint equals base — base verdict carries *)
  | Static_violation of string
      (** tier 3 cut analysis: definite disconnection, no fixpoint *)
  | Simulate  (** representative must simulate; verdict replicates *)

type cls = {
  cl_rep : failure list;  (** representative scenario (first member) *)
  cl_members : failure list list;  (** all members, enumeration order *)
  cl_decision : decision;
}

type plan = {
  pl_k : int;
  pl_scenarios : failure list list;  (** enumeration order, sizes 1..k *)
  pl_class_of : int array;  (** scenario index -> index into [pl_classes] *)
  pl_classes : cls list;
  pl_total : int;  (** scenarios enumerated *)
  pl_carried : int;  (** members of the base-equivalent class *)
  pl_static : int;  (** members decided by the cut analysis *)
  pl_replicated : int;  (** non-representative members of simulate classes *)
  pl_to_simulate : int;  (** representatives that must simulate *)
  pl_opaque : bool;  (** footprint gave the analysis nothing to prune with *)
}

(** The unpruned plan: every scenario of size 1..k over the topology's
    candidate failures is its own [Simulate] class.  Needs no analysis
    context: it is the brute-force sweep's plan, and what {!analyze}
    returns for a footprint that gives it nothing to prune with. *)
val singletons : devices:bool -> links:bool -> Topology.t -> k:int -> plan

(** Enumerate all scenarios of size 1..k over the candidate set and
    partition them into verdict-equivalence classes. *)
val analyze :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?devices:bool ->
  ?links:bool ->
  t ->
  k:int ->
  footprint ->
  plan
