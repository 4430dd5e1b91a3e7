(** The paper's {e global RIB abstraction} (§4.1): every route of every
    device in one table, which RCL intents are evaluated against and
    route simulation emits.

    A {!t} is always the {e canonical row set}: sorted by
    {!Route.compare} and deduplicated.  The row order is decided here
    and nowhere else, so every executor that builds the same set builds
    the same rows in the same order, and counterexamples, which list
    rows in RIB order, read the same on every path.

    {b Representation.}  [Route.compare] leads with (device, vrf,
    prefix), so the canonical order is device-major.  A [t] stores it as
    one {e chunk} per device, in device-name order: a sorted row array
    of that device's rows (never empty) plus the offset of each VRF's
    first row.  Within a chunk a (vrf, prefix) slot is a short VRF scan
    and a binary search away.

    {b Sharing.}  Chunks are immutable and shared freely: {!device},
    {!filter} of a chunk it keeps whole, {!union} of a device only one
    side holds and {!replace} all return the input chunk itself, not a
    copy.  {!equal} and {!diff} skip a pair of physically equal chunks
    without reading a row, so two RIBs that share every chunk but a few
    (a base and its incremental splice) compare in time proportional to
    the devices plus the rows of the chunks that differ.

    {b Costs} (n rows, D devices, V VRFs on a device):
    {!length} O(1); {!device} O(log D); {!slot} O(V + log n);
    {!fold_prefix} O(D (V + log n)) plus the rows visited; {!iter},
    {!fold}, {!to_seq} O(n) without allocating a list; {!to_list} O(n)
    and materialises every row — for tests and cold paths only;
    {!of_routes} one O(n log n) sort; {!filter}, {!group_by}, {!copy}
    O(n); {!union}, {!equal}, {!diff} and {!replace} linear in the rows
    of the chunks they cannot share. *)

type t

val empty : t

(** Sort and deduplicate. *)
val of_routes : Route.t list -> t

(** Every row, in RIB order.  Allocates the whole list: tests and cold
    paths only. *)
val to_list : t -> Route.t list

(** The rows in RIB order, on demand. *)
val to_seq : t -> Route.t Seq.t

val iter : (Route.t -> unit) -> t -> unit

(** Left fold in RIB order. *)
val fold : (Route.t -> 'a -> 'a) -> t -> 'a -> 'a

(** The number of rows. *)
val length : t -> int

val is_empty : t -> bool

(** One device's rows: its chunk, shared. *)
val device : t -> string -> t

(** Each device's rows, in device order: the chunks, shared. *)
val by_device : t -> (string * t) list

(** Do both RIBs hold the same physical chunk for the device?  [true]
    means its rows were shared, not rebuilt. *)
val shares_device : t -> t -> string -> bool

(** The rows of one (device, vrf, prefix) slot, in RIB order. *)
val slot : t -> device:string -> vrf:string -> prefix:Prefix.t -> Route.t list

(** Fold over the rows on one prefix, every device and VRF, in RIB
    order: a slot probe per (device, VRF), never a row scan. *)
val fold_prefix : (Route.t -> 'a -> 'a) -> t -> Prefix.t -> 'a -> 'a

(** Fresh copies of the rows, allocated in RIB order, so a whole-RIB
    scan walks memory sequentially rather than in the order the rows
    were built. *)
val copy : t -> t

(** The rows satisfying the predicate.  A chunk whose every row passes
    is kept, not copied. *)
val filter : (Route.t -> bool) -> t -> t

(** Split by a key in one pass: the groups in order of first
    appearance, each a [t]. *)
val group_by : (Route.t -> 'k) -> t -> ('k * t) list

(** Set union: per device, a linear merge of the chunks that hold it;
    a device one RIB alone holds keeps its chunk. *)
val union : t list -> t

(** Set equality, decided chunk by chunk; physically equal chunks are
    equal without a row compare. *)
val equal : t -> t -> bool

(** The rows of the first RIB not in the second: one linear merge walk
    per device, none for a chunk both share. *)
val diff : t -> t -> t

(** [patch_slots rib d [((vrf, prefix), rows); ...]] is device [d]'s
    rows with each listed (vrf, prefix) slot's rows replaced by the
    given ones ([[]] empties the slot), as a one-device RIB.  The rows
    between the listed slots are copied in blocks, never compared: the
    cost is one array copy of the chunk plus a binary search and a sort
    per listed slot.  Raises [Invalid_argument] if a row lies outside
    its slot or a slot is listed twice. *)
val patch_slots :
  t -> string -> ((string * Prefix.t) * Route.t list) list -> t

(** [replace base [(d, r); ...]] is [base] with device [d]'s rows
    replaced by [r]'s (an empty [r] removes the device).  Every other
    device keeps [base]'s chunk itself.  Raises [Invalid_argument] if
    [r] holds a row of another device or a device is named twice. *)
val replace : t -> (string * t) list -> t
