(** Input splitting and the ordering heuristic (paper §3.2).

    Route inputs are ordered by the last address of their shard key and
    cut into runs of consecutive whole keys balanced by weight (an
    aggregate's contributors stay together); flows are ordered by
    destination address.  Because both sides follow the same order, a
    traffic subtask's destination range overlaps only a few route
    subtasks' covered ranges — so its worker loads only those RIB files.  [Random] is the paper's
    comparison baseline (Figure 5d): random partitions depend on
    essentially every RIB file. *)

open Hoyan_net

(** The route side's cut is {!Hoyan_sim.Route_sim.runs}, in this order. *)
type strategy = Hoyan_sim.Route_sim.order = Ordered | Random of int  (** seed *)

(** Split input flows, each subset with its destination-address range. *)
val split_flows :
  strategy:strategy ->
  subtasks:int ->
  Flow.t list ->
  (Flow.t list * (Ip.t * Ip.t)) list

(** The dependency test: do the two closed ranges intersect?  Sound: a
    flow can only match a route whose prefix covers its destination, and
    such a prefix lies under a shard key of its subtask, whose
    [first,last] interval the recorded range spans (property-tested in
    the suite). *)
val ranges_overlap : Ip.t * Ip.t -> Ip.t * Ip.t -> bool
