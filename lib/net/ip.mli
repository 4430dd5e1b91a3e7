(** IP addresses, both IPv4 and IPv6.

    IPv4 addresses are stored as a non-negative OCaml [int] in
    [0, 2^32-1]; IPv6 addresses as an unsigned {!Int128.t}.  The paper's
    WAN is dual stack (the next generation is IPv6/SRv6 based), so both
    families are first-class throughout the code base. *)

type t = V4 of int | V6 of Int128.t

type family = Ipv4 | Ipv6

val family : t -> family

(** Address width of a family: 32 or 128. *)
val family_bits : family -> int

val family_to_string : family -> string

val equal : t -> t -> bool

(** Total order: IPv4 sorts before IPv6; numeric (unsigned) within a
    family.  This is the order the distributed splitter's ranges use. *)
val compare : t -> t -> int

val v4_max : int

(** [v4 n] is the IPv4 address with numeric value [n].
    @raise Invalid_argument when out of range. *)
val v4 : int -> t

val v6 : Int128.t -> t

(** [v4_of_octets a b c d] is [a.b.c.d].
    @raise Invalid_argument when an octet is out of range. *)
val v4_of_octets : int -> int -> int -> int -> t

(** [bit t i] is bit [i] counting from the most significant (bit 0 is the
    top bit); the longest-prefix trie walks addresses this way. *)
val bit : t -> int -> bool

val zero : family -> t

(** Saturating successor/predecessor within the family. *)
val succ : t -> t

val pred : t -> t

(** [add t k] is [t + k], saturating; [k] must be non-negative. *)
val add : t -> int -> t

(** Canonical rendering: dotted quad for IPv4; RFC 5952-style compressed
    form for IPv6 (longest zero run collapsed to [::]). *)
val to_string : t -> string

(** Parses both families ([:] selects IPv6, including [::] compression).
    Returns [None] on malformed input. *)
val of_string : string -> t option

val of_string_exn : string -> t

val pp : Format.formatter -> t -> unit

val hash : t -> int
