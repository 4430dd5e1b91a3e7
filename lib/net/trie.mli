(** Binary longest-prefix-match tries over IP prefixes.

    Used for FIBs in traffic simulation and for prefix-set evaluation.
    One trie covers one address family; {!Dual} bundles a v4 and a v6
    trie behind family dispatch.  Tries are persistent (pure). *)

type 'a t

val empty : Ip.family -> 'a t

val is_empty : 'a t -> bool

(** [add t prefix v] binds [prefix] to [v], replacing a previous binding.
    @raise Invalid_argument on a family mismatch. *)
val add : 'a t -> Prefix.t -> 'a -> 'a t

(** [update t prefix f] rewrites the binding through [f] (receives
    [None] when absent; returning [None] removes).  Removal prunes the
    emptied spine, so {!is_empty} holds once the last binding is gone. *)
val update : 'a t -> Prefix.t -> ('a option -> 'a option) -> 'a t

val remove : 'a t -> Prefix.t -> 'a t

val find_exact : 'a t -> Prefix.t -> 'a option

(** Longest-prefix match of an address: the most specific covering
    binding, with the matched prefix reconstructed. *)
val longest_match : 'a t -> Ip.t -> (Prefix.t * 'a) option

(** All covering bindings, most specific first. *)
val all_matches : 'a t -> Ip.t -> (Prefix.t * 'a) list

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val to_list : 'a t -> (Prefix.t * 'a) list

val cardinal : 'a t -> int

(** Mutable batch construction: [add]/[update] mutate in place (one node
    allocated per new spine element, against a whole spine copy per
    persistent {!add}); [build] freezes into the persistent trie.  Used
    to build WAN-scale FIBs in one pass. *)
module Builder : sig
  type 'a builder

  val create : Ip.family -> 'a builder

  (** @raise Invalid_argument on a family mismatch. *)
  val add : 'a builder -> Prefix.t -> 'a -> unit

  val update : 'a builder -> Prefix.t -> ('a option -> 'a option) -> unit

  val build : 'a builder -> 'a t
end

(** Batch-build from bindings (later bindings of one prefix win). *)
val of_list : Ip.family -> (Prefix.t * 'a) list -> 'a t

(** A v4 + v6 trie pair with family dispatch on every operation. *)
module Dual : sig
  type 'a t

  val empty : 'a t

  val is_empty : 'a t -> bool

  val add : 'a t -> Prefix.t -> 'a -> 'a t

  val update : 'a t -> Prefix.t -> ('a option -> 'a option) -> 'a t

  val remove : 'a t -> Prefix.t -> 'a t

  val find_exact : 'a t -> Prefix.t -> 'a option

  val longest_match : 'a t -> Ip.t -> (Prefix.t * 'a) option

  val all_matches : 'a t -> Ip.t -> (Prefix.t * 'a) list

  val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

  val to_list : 'a t -> (Prefix.t * 'a) list

  val cardinal : 'a t -> int

  (** Family-dispatching mutable batch construction (see
      {!Trie.Builder}). *)
  module Builder : sig
    type 'a builder

    val create : unit -> 'a builder

    val add : 'a builder -> Prefix.t -> 'a -> unit

    val update : 'a builder -> Prefix.t -> ('a option -> 'a option) -> unit

    val build : 'a builder -> 'a t
  end

  val of_list : (Prefix.t * 'a) list -> 'a t
end
