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
    O(V (E + V) log V) and {!compute_rows} pays only for its sources.
    Link costs whose absolute values sum past [max_int asr (b + 1)]
    ([b] = bits of a device index) raise [Invalid_argument]. *)

open Hoyan_net
module Types = Hoyan_config.Types

(** The IGP view: distances and ECMP first hops per (source, destination)
    row.  Immutable once computed; safe to share across domains. *)
type t

(** The all-pairs IGP view.  [te_aware] (default [true]) controls whether
    IS-IS TE interface costs are honoured (see the module doc). *)
val compute :
  ?te_aware:bool -> Topology.t -> Types.t Types.Smap.t -> t

(** Like {!compute}, but runs Dijkstra only from [sources] (names not in
    the topology are ignored; duplicates are harmless).  Contract: every
    row outside [sources] is all-unreachable, so a lookup whose source is
    not in [sources] returns [None]/[[]] rather than failing; rows of
    [sources] equal {!compute}'s.  [compute] is [compute_rows] over every
    device.

    This is the cheap per-scenario IGP view used by the static what-if
    analysis ([Failure_eq]): fingerprinting a failure scenario only needs
    the rows of the devices inside a property's blast region. *)
val compute_rows :
  ?te_aware:bool ->
  Topology.t ->
  Types.t Types.Smap.t ->
  sources:string list ->
  t

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
