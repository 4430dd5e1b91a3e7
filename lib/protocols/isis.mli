(** IS-IS link-state routing: one shortest-path engine with ECMP.

    Edge costs come from each device's per-interface [isis cost]
    configuration (default 10).  A view of the result is what BGP uses
    for next-hop resolution and the igp-cost tie-break, what traffic
    simulation and SR tunnels forward along, and what the static what-if
    analysis ([Failure_eq]) reads per failure scenario.  With IS-IS TE
    (RFC 5305) a te-enabled interface's cost counts only when the model
    is TE-aware; the diagnosis experiments re-create the pre-2023 gap by
    disabling it.

    {b Cost domain.}  A link cost is a non-negative int: the parsers
    reject a negative or non-integer [isis cost], [default-cost] and
    [circuit-cost], and the engine raises [Invalid_argument] on a
    negative cost or when the costs sum past [max_int asr (b + 1)] ([b]
    = bits of a device index).  Zero costs are allowed.

    {b One engine.}  A view is the graph on device indices (name order:
    [Topology.device_names] comes from a [String] map), a failure mask
    (failed devices and cut links) and the distance rows of its sources.
    One Dijkstra fills a row (int adjacency arrays, a binary heap of
    packed [(dist, node)] keys, masked devices and links skipped), in
    O((E + V) log V).  Every reader takes indices; callers translate
    names once with {!index}.  A live source of {!fail} reuses its
    no-failure row unless a failed edge is tight on a no-failure shortest
    path from it to a read device, or some link costs 0; failures never
    shorten a path, so a reused row is exact on every read.  A row that
    is not reused is repaired on positive costs: only the descendants of
    a failed edge's head (or a failed device) in the row's shortest-path
    DAG can lose their distance, and of those only the ones left with no
    tight in-edge from a node that kept its own are settled again, from
    their live neighbours' distances (the deletion case of Ramalingam
    and Reps, J. Algorithms 1996).  With a zero cost the row is
    recomputed by a full Dijkstra.  Either way it equals a full Dijkstra
    on the masked graph at every device.

    {b Derived first hops.}  Rows carry distances only.  ECMP first hops
    come from a source's row through the in-edges of its shortest-path
    DAG: the live edges [u -> w] of cost [c] with [dist u + c = dist w]
    that, at [c = 0], add a hop on the fewest-hop shortest paths (so
    zero-cost ties never close a cycle).  Only forwarding callers pay for
    them.  They are derived lazily and domain-safely: a source's first
    hops are derived on its first read and published through an
    [Atomic.t], so readers on several domains may each derive them but
    never see a partial row.  {!some_path} walks the same DAG: on
    positive costs it takes the name-smallest first hop at each step,
    and on any costs it ends on a shortest path. *)

open Hoyan_net
module Types = Hoyan_config.Types

(** An IGP view; immutable but for its published first hops, so safe to
    share across domains. *)
type t

(** The no-failure view of the rows of [sources], read at [reads]
    (default: every device; names outside the topology are ignored).
    The simulator's model takes every device; a failure analysis only
    the rows it masks per scenario.  [te_aware] (default [true]): see
    the module doc. *)
val compute :
  ?te_aware:bool ->
  ?sources:string list ->
  ?reads:string list ->
  Topology.t ->
  Types.t Types.Smap.t ->
  t

(** A device's index, [None] outside the topology. *)
val index : t -> string -> int option

val name : t -> int -> string

(** The view with every parallel link of each [links] pair and every
    device of [devices] down as well: the distances {!compute} gives on
    the topology with them removed. *)
val fail : t -> links:(int * int) list -> devices:int list -> t

(** Distance from [src] to [dst], [max_int] when unreachable or either
    end is down.  This and the readers below raise [Invalid_argument]
    unless [src] is a source of the view and [dst] a read. *)
val cost : t -> src:int -> dst:int -> int

val reachable : t -> src:int -> dst:int -> bool

(** ECMP first hops from [src] toward [dst], ascending; [[]] when
    unreachable, when [src = dst] or when either end is down. *)
val first_hops : t -> src:int -> dst:int -> int list

(** One shortest path [src .. dst], [None] when unreachable. *)
val some_path : t -> src:int -> dst:int -> int list option

(** Whether the device is one of the view's failed devices. *)
val down : t -> int -> bool

(** Whether a link between the two devices survives the failures. *)
val linked : t -> int -> int -> bool

(** Live sources whose row {!fail} reused / recomputed for this view
    (both 0 on a no-failure view). *)
val reused : t -> int

val recomputed : t -> int

(** Nodes whose distance {!fail} settled anew over the recomputed rows:
    a repaired row's affected nodes still reachable, a full recompute's
    every reachable node (0 on a no-failure view). *)
val resettled : t -> int
