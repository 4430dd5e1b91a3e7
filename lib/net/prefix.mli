(** CIDR prefixes over both address families, stored in normalized form
    (host bits zeroed). *)

type t

(** [make ip len] normalizes [ip] to [len] bits.
    @raise Invalid_argument when [len] exceeds the family width. *)
val make : Ip.t -> int -> t

(** [make_opt ip len] is [make] returning [None] on an out-of-range
    length — for parser paths fed untrusted input. *)
val make_opt : Ip.t -> int -> t option

val ip : t -> Ip.t

val len : t -> int

val family : t -> Ip.family

(** Family width in bits (32 or 128). *)
val bits : t -> int

val equal : t -> t -> bool

(** Order by first address, then by length (a covering prefix sorts
    before its subnets). *)
val compare : t -> t -> int

val first_addr : t -> Ip.t

(** The last address covered — the sort key of the distributed
    simulator's ordering heuristic (§3.2 of the paper). *)
val last_addr : t -> Ip.t

(** Number of covered addresses (saturating for huge IPv6 blocks). *)
val size : t -> int

(** [mem ip t]: is [ip] covered by [t]? *)
val mem : Ip.t -> t -> bool

(** [subsumes a b]: is every address of [b] inside [a]? *)
val subsumes : t -> t -> bool

val overlap : t -> t -> bool

val to_string : t -> string

val of_string : string -> t option

val of_string_exn : string -> t

val pp : Format.formatter -> t -> unit

val hash : t -> int

(** The default route of a family ([0.0.0.0/0] or [::/0]). *)
val default : Ip.family -> t

(** The two /(len+1) halves, or [None] for host routes. *)
val halves : t -> (t * t) option

module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

module Set : Stdlib.Set.S with type elt = t

module Map : Stdlib.Map.S with type key = t

(** Hashtables on {!equal}/{!hash}: prefix-keyed sets and maps without
    rendering a string per lookup. *)
module Tbl : Stdlib.Hashtbl.S with type key = t
