(** IS-IS link-state routing: all-pairs shortest paths with ECMP.

    Edge costs come from each device's per-interface [isis cost]
    configuration (default 10).  The result is the IGP view that BGP uses
    for next-hop resolution and the igp-cost tie-break step, and that
    traffic simulation uses to expand hop-by-hop forwarding.

    When the IS-IS TE extension (RFC 5305) is enabled on a device and an
    interface carries [isis traffic-eng], the interface advertises a TE
    metric; we model TE by allowing a distinct TE cost table used by SR
    policy path computation.  (The paper notes IS-IS TE was unsupported
    until 03/2023 and caused traffic-simulation inaccuracy — the diagnosis
    experiments re-create that by disabling TE awareness.)

    {b Kernel.}  Devices are numbered in name order ([Topology.device_names]
    comes from a [String] map), so device-index order {e is} name order.
    Each source runs one Dijkstra over per-node int adjacency arrays with
    a binary heap of packed [(dist, node)] int keys; it pops in
    lexicographic (dist, node) order, and ECMP first hops are kept as
    ascending index lists merged linearly.  Hence {!first_hops} returns
    names sorted by [String.compare] and {!some_path} follows the
    name-smallest first hop.  One source costs O((E + V) log V) with no
    allocation beyond the first-hop lists, so {!compute} is
    O(V (E + V) log V).  Link costs whose absolute values sum past
    [max_int asr (b + 1)] ([b] = bits of a device index) raise
    [Invalid_argument].

    {b Failure views.}  {!View} serves the static what-if analysis
    ([Failure_eq]), which reads, per failure scenario, the distances from
    a fixed set of sources to a fixed set of read devices.  It builds the
    graph and the sources' no-failure distance rows once; a scenario's
    failed links and devices are then a mask over that graph, and its
    rows carry distances only (no first hops).  A source reuses its
    no-failure row unless a failed edge is tight on a no-failure shortest
    path from it to a read device, else Dijkstra reruns on the masked
    graph. *)

open Hoyan_net
module Types = Hoyan_config.Types

(** The IGP view: distances and ECMP first hops per (source, destination)
    row.  Immutable once computed; safe to share across domains. *)
type t

(** The all-pairs IGP view.  [te_aware] (default [true]) controls whether
    IS-IS TE interface costs are honoured (see the module doc). *)
val compute :
  ?te_aware:bool -> Topology.t -> Types.t Types.Smap.t -> t

(** Shortest-path cost, [None] when unreachable or either end unknown. *)
val cost : t -> src:string -> dst:string -> int option

val reachable : t -> src:string -> dst:string -> bool

(** ECMP first hops (device names, sorted) on shortest paths from [src]
    to [dst]; [[]] when unreachable or either end is unknown. *)
val first_hops : t -> src:string -> dst:string -> string list

(** One ECMP-respecting shortest path (lexicographically first hops), for
    forwarding-graph displays. *)
val some_path : t -> src:string -> dst:string -> string list option

(** Every device of the view's topology, in name order. *)
val devices : t -> string list

(** Distance-only IGP views of failure scenarios over one graph, keyed on
    device indices (name order, as in {!compute}). *)
module View : sig
  (** The graph plus the no-failure distance rows of [sources], and, per
      source, the devices on a shortest path from it to a read device. *)
  type base

  (** [sources] are the devices distances are read from, [reads] the
      devices they are read to; names outside the topology are ignored.
      [te_aware] as in {!compute}. *)
  val base :
    ?te_aware:bool ->
    Topology.t ->
    Types.t Types.Smap.t ->
    sources:string list ->
    reads:string list ->
    base

  (** A device's index, [None] outside the topology. *)
  val index : base -> string -> int option

  (** One failure scenario's view. *)
  type t

  (** The view with every parallel link of each [links] pair and every
      device of [devices] (indices) down — the distances {!compute}
      gives on the topology with those links and devices removed.  A
      live source reuses its no-failure row when no failed edge is tight
      on a no-failure shortest path from it to a read device (failures
      never shorten a path, and one shortest path to each read
      survives); otherwise, and always when some link cost is not
      positive, its row is recomputed. *)
  val fail : base -> links:(int * int) list -> devices:int list -> t

  (** Distance from [src] to [dst], [max_int] when unreachable or either
      end is down.  Raises [Invalid_argument] unless [src] is one of the
      base's sources and [dst] one of its reads. *)
  val cost : t -> src:int -> dst:int -> int

  val reachable : t -> src:int -> dst:int -> bool

  (** Whether the device is one of the view's failed devices. *)
  val down : t -> int -> bool

  (** Whether a link between the two devices survives the failures. *)
  val linked : t -> int -> int -> bool

  (** Live sources whose row was reused / recomputed for this view. *)
  val reused : t -> int

  val recomputed : t -> int
end
