(** Routes: the rows of Hoyan's global RIB abstraction.

    A route is one path for one prefix on one device/VRF; ECMP shows up
    as several routes whose [route_type] is [Best]/[Ecmp].  The [device]
    and [vrf] fields make a route directly usable as a row of the global
    RIB that RCL (paper §4) specifies over.

    The scalar BGP attributes (local-pref, MED, weight, origin, family)
    are packed into the single immutable [attrs] word — read them through
    {!local_pref}/{!med}/{!weight}/{!origin} and update them through the
    [with_*] functions. *)

type origin = Igp | Egp | Incomplete

val origin_to_string : origin -> string

(** Decision-process rank: IGP < EGP < Incomplete. *)
val origin_rank : origin -> int

type proto = Bgp | Isis | Static | Direct | Aggregate | Sr_policy

val proto_to_string : proto -> string

type source = Ebgp | Ibgp | Local | Redistributed

val source_to_string : source -> string

type route_type = Best | Ecmp | Backup

val route_type_to_string : route_type -> string

(** The packed scalar-attribute word: local-pref (21 bits), MED (21),
    weight (17), origin (2) and address family (1) in one int, ordered so
    that the natural int order is the lexicographic field order.
    Out-of-range values saturate at the field maximum. *)
module Attrs : sig
  type t = int

  (** Field saturation bounds (inclusive maxima; minima are 0). *)
  val lp_max : int

  val med_max : int
  val weight_max : int

  val pack :
    local_pref:int ->
    med:int ->
    weight:int ->
    origin:origin ->
    family:Ip.family ->
    t

  val local_pref : t -> int
  val med : t -> int
  val weight : t -> int
  val origin : t -> origin
  val family : t -> Ip.family

  val with_local_pref : t -> int -> t
  val with_med : t -> int -> t
  val with_weight : t -> int -> t
  val with_origin : t -> origin -> t
end

type t = {
  device : string;
  vrf : string;
  prefix : Prefix.t;
  proto : proto;
  nexthop : Ip.t option;  (** [None] = locally originated / connected *)
  out_iface : string option;
  attrs : Attrs.t;  (** packed local_pref/med/weight/origin/family *)
  preference : int;  (** admin distance; vendor-specific defaults *)
  communities : Community.Set.t;
  as_path : As_path.t;
  igp_cost : int;  (** cost to reach the BGP next hop *)
  peer : string option;  (** neighbor device the route was learned from *)
  source : source;
  route_type : route_type;
  tag : int;
}

val default_vrf : string

val make :
  device:string ->
  prefix:Prefix.t ->
  ?vrf:string ->
  ?proto:proto ->
  ?nexthop:Ip.t ->
  ?out_iface:string ->
  ?local_pref:int ->
  ?med:int ->
  ?weight:int ->
  ?preference:int ->
  ?communities:Community.Set.t ->
  ?as_path:As_path.t ->
  ?origin:origin ->
  ?igp_cost:int ->
  ?peer:string ->
  ?source:source ->
  ?route_type:route_type ->
  ?tag:int ->
  unit ->
  t

(** The packed attribute word (also usable as a sort-key fragment). *)
val attrs : t -> Attrs.t

val local_pref : t -> int
val med : t -> int
val weight : t -> int
val origin : t -> origin
val family : t -> Ip.family

val with_local_pref : t -> int -> t
val with_med : t -> int -> t
val with_weight : t -> int -> t
val with_origin : t -> origin -> t

(** A selected route: [Best] or [Ecmp], not [Backup].  Only selected
    routes are installed, forwarded on and count as "present". *)
val selected : t -> bool

(** Structural equality over every field. *)
val equal : t -> t -> bool

(** A total order consistent with {!equal}: the canonical RIB row order
    ({!Rib.t}). *)
val compare : t -> t -> int

(** ["self"] when the route has no next hop. *)
val nexthop_string : t -> string

val to_string : t -> string

val pp : Format.formatter -> t -> unit
