(** BGP community values ("ASN:tag") and route community sets. *)

type t = { asn : int; tag : int }

(** @raise Invalid_argument when out of range (asn 32-bit, tag 16-bit). *)
val make : int -> int -> t

val asn : t -> int

val tag : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string

val of_string : string -> t option

val of_string_exn : string -> t

val pp : Format.formatter -> t -> unit

(** Well-known communities (RFC 1997); the BGP engine honours
    [no_export] (blocked over eBGP) and [no_advertise] (blocked over
    every session). *)
val no_export : t

val no_advertise : t

module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

(** Community sets attached to routes, kept sorted and deduplicated so
    structural equality coincides with set equality (this matters for
    the §3.1 equivalence-class keys). *)
module Set : sig
  type elt = t

  type t

  val empty : t

  val is_empty : t -> bool

  val of_list : elt list -> t

  val to_list : t -> elt list

  val singleton : elt -> t

  val mem : elt -> t -> bool

  val add : elt -> t -> t

  val union : t -> t -> t

  val remove : elt -> t -> t

  val diff : t -> t -> t

  val cardinal : t -> int

  val equal : t -> t -> bool

  val compare : t -> t -> int

  (** Comma-separated canonical rendering ("100:1,200:2"). *)
  val to_string : t -> string

  val of_string : string -> t option

  val pp : Format.formatter -> t -> unit
end
