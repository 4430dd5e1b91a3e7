(** Route simulation: input routes -> all routers' RIBs (paper §3.1).

    Wraps the BGP fixpoint engine with equivalence-class compression: one
    representative prefix is simulated per class and the resulting rows
    are replicated for the other members. *)

open Hoyan_net

type result = {
  rib : Rib.t;
      (** the global RIB: BGP rows, EC-expanded member rows and local
          tables, merged into one canonical row set *)
  bgp_stats : Hoyan_proto.Bgp.stats;
  input_count : int;  (** input routes submitted *)
  ec_count : int;  (** equivalence classes (simulation units) *)
  compression : float;  (** input routes / simulated routes *)
}

(** Run the route simulation for a model on the given input routes.

    - [use_ecs=false] disables EC compression (ablation; results must be
      identical, which the test suite checks).
    - [include_locals=false] omits connected/static/IS-IS rows from the
      result (distributed subtask workers use this; the rows live in the
      shared base RIB file instead).
    - [originate=false] also skips network statements and redistribution
      (again for subtask workers).
    - [only] restricts the whole simulation to a prefix set: inputs,
      origination (networks / redistribution / aggregates) and the
      local-table rows of the result are filtered by it, and the BGP
      fixpoint never injects a prefix outside it.  Sound iff the set is
      closed under aggregate contribution — see
      {!Hoyan_sim.Incremental}, which owns that closure and the
      selfcheck oracle for it.
    - [tm] (default: the process-global handle) receives EC-compression
      and fixpoint telemetry. *)
val run :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?use_ecs:bool ->
  ?include_locals:bool ->
  ?originate:bool ->
  ?only:(Prefix.t -> bool) ->
  Model.t ->
  input_routes:Route.t list ->
  unit ->
  result
