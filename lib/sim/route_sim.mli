(** Route simulation: input routes -> all routers' RIBs (paper §3.1).

    Wraps the BGP fixpoint engine with equivalence-class compression: one
    representative prefix is simulated per class and the resulting rows
    are replicated for the other members.

    A full run (no [?only]) is split by prefix into shards that converge
    independently, one per {!Parallel.map} domain.  A shard holds every
    prefix under one outermost aggregate (of any device) together, or a
    prefix no aggregate covers on its own; so its prefix set is closed
    under aggregate contribution, which is the [?only] contract below.
    Each shard runs [Bgp.run ~only] over its own representatives,
    expands its own classes and sorts its own part of the RIB; the parts
    are merged with {!Rib.union}.  The RIB, [bgp_stats] (rounds: the
    most any shard took; messages and selected rows: summed),
    [ec_count] and [compression] equal the unsplit run's. *)

open Hoyan_net

type result = {
  rib : Rib.t;
      (** the global RIB: BGP rows, EC-expanded member rows and local
          tables, merged into one canonical row set *)
  bgp_stats : Hoyan_proto.Bgp.stats;
  input_count : int;  (** input routes submitted *)
  ec_count : int;  (** equivalence classes (simulation units) *)
  compression : float;  (** input routes / simulated routes *)
  shards : int;  (** prefix shards the fixpoint ran as (1 if unsplit) *)
}

(** Run the route simulation for a model on the given input routes.

    - [use_ecs=false] disables EC compression (ablation; results must be
      identical, which the test suite checks).
    - [include_locals=false] omits connected/static/IS-IS rows from the
      result (the incremental splice and the distributed workers take
      them from the model instead).
    - [only] restricts the whole simulation to a prefix set: inputs,
      origination (networks / redistribution / aggregates) and the
      local-table rows of the result are filtered by it, and the BGP
      fixpoint never injects a prefix outside it.  Sound iff the set is
      closed under aggregate contribution, as any set of whole shard
      keys is ({!owns}); see {!Hoyan_sim.Incremental}, which owns the
      closure of a dirty set and the selfcheck oracle for it.
    - [domains] (default {!Parallel.default_domains}) is the number of
      shards of a full run, and of the domains that run them.  It decides
      the shards, not the machine: the same [domains] splits the same
      way on any core count.  A restricted ([?only]) run never splits:
      it is small, and a split costs more than it saves.  Callers whose
      measured time stands for one server (the distributed framework,
      the centralized baseline) pass [~domains:1].
    - [tm] (default: the process-global handle) receives EC-compression
      and fixpoint telemetry: a [route.fixpoint] span over the shards,
      and per shard a [route.shard] span (args [shard]; [prefixes], the
      distinct prefixes of its simulated inputs; [rows]; [messages])
      whose [bgp.round] events carry its [shard]. *)
val run :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?use_ecs:bool ->
  ?include_locals:bool ->
  ?only:(Prefix.t -> bool) ->
  ?domains:int ->
  Model.t ->
  input_routes:Route.t list ->
  unit ->
  result

(** {2 Runs: the input planner's cut for subtasks and chunks}

    The planner weighs every prefix a run can touch (input routes,
    network statements, aggregates, redistributed local rows) under its
    shard key.  A full run's domain shards take the keys heaviest first;
    {!runs} takes them in consecutive runs, so the distributed
    framework's subtasks and the centralized baseline's chunks each hold
    whole keys and originate exactly their own keys' routes. *)

(** The order of the keys: by their last address (the paper's §3.2
    ordering heuristic), or a seeded shuffle (its random baseline). *)
type order = Ordered | Random of int

(** The seeded in-place shuffle of [Random]. *)
val shuffle : int -> 'a array -> unit

type run = {
  rn_keys : Prefix.t list;  (** the shard keys it owns, in cut order *)
  rn_routes : Route.t list;
      (** the input routes under its keys, in input order *)
  rn_range : Ip.t * Ip.t;
      (** first to last address over its keys: every row a run of it
          yields has its prefix inside *)
}

(** [runs ~order ~n model routes] cuts the keys of [routes] into at most
    [n] runs of consecutive keys in [order], balanced by weight.  Every
    route lands in exactly one run, and every planned key in one. *)
val runs : order:order -> n:int -> Model.t -> Route.t list -> run list

(** [owns model keys] is the [?only] of a run over [keys]: a prefix
    whose shard key is one of them. *)
val owns : Model.t -> Prefix.t list -> Prefix.t -> bool
