(** The paper's {e global RIB abstraction} (§4.1): every route of every
    device in one table, which RCL intents are evaluated against and
    route simulation emits.

    A {!t} is always the {e canonical row set}: sorted by
    {!Route.compare} and deduplicated.  The row order is decided here
    and nowhere else, so every executor that builds the same set builds
    the same list, and counterexamples, which list rows in RIB order,
    read the same on every path.  Reading a [t] is the free coercion
    [(rib :> Route.t list)]; building one goes through {!of_routes}
    (the one sort), {!filter}, {!group_by}, {!union}, {!copy} or
    {!Arena.merge}. *)

type t = private Route.t list

val empty : t

(** Sort and deduplicate. *)
val of_routes : Route.t list -> t

(** Fresh copies of the rows, allocated in RIB order, so a whole-RIB
    scan walks memory sequentially rather than in the order the rows
    were built. *)
val copy : t -> t

(** The rows satisfying the predicate. *)
val filter : (Route.t -> bool) -> t -> t

(** Split by a key in one pass: the groups in order of first
    appearance, each a [t]. *)
val group_by : (Route.t -> 'k) -> t -> ('k * t) list

(** Set union: pairwise linear merges, no sort. *)
val union : t list -> t

(** Set equality, decided row for row. *)
val equal : t -> t -> bool

(** The rows of the first RIB not in the second: one linear merge
    walk. *)
val diff : t -> t -> t

(** Packed per-route sort keys.  A {!ctx} maps the (device, vrf,
    prefix) universe of a phase to dense ids {e assigned in sorted
    order}, so the mixed-radix packed key orders like the leading
    fields of {!Route.compare}.  A route outside the universe gets no
    key; {!Arena} keeps it on a sorted overflow side channel, so an
    incomplete universe costs speed, never correctness. *)
module Key : sig
  type ctx

  (** The ctx whose universe is exactly the given routes. *)
  val of_routes : Route.t list -> ctx

  (** The number of prefix ids: the length of a prefix mask. *)
  val prefix_count : ctx -> int

  (** The id of a universe prefix, in [0, prefix_count); [None] for a
      prefix outside the universe (it owns no keyed row). *)
  val prefix_id : ctx -> Prefix.t -> int option
end

(** A compact RIB over one {!Key.ctx}: parallel flat arrays (packed
    key, route) sorted by [(key, Route.compare)], plus the un-keyable
    rows.  Arenas merge with int compares on the keys. *)
module Arena : sig
  type rib := t

  type t = private {
    keys : int array;
    rows : Route.t array;
    overflow : Route.t list;
  }

  val cardinal : t -> int

  (** One linear pass, no sort: a canonical list is already in
      [(key, Route.compare)] order. *)
  val of_rib : Key.ctx -> rib -> t

  (** Cut out the rows on dirty prefixes.  [mask] holds one byte per
      prefix id, non-zero for a dirty prefix; keyed rows are tested by
      their key's prefix digit without allocating, overflow rows with
      [dirty].  [on_drop] receives each dropped row's device. *)
  val drop_prefixes :
    Key.ctx ->
    mask:Bytes.t ->
    dirty:(Prefix.t -> bool) ->
    on_drop:(string -> unit) ->
    t ->
    t

  (** The rows of one (device, vrf, prefix) slot, in RIB order: a binary
      search of the keys, or a filter of the overflow rows. *)
  val slot_rows :
    Key.ctx -> t -> device:string -> vrf:string -> prefix:Prefix.t -> Route.t list

  (** Pairwise-round merge of many arenas into one RIB. *)
  val merge : t list -> rib
end
