(** The compiled network model.

    The pre-processing "network model building service" (paper §2.2)
    parses all routers' configurations into this model once a day; change
    verification updates it incrementally.  It bundles everything the
    simulators need: address ownership, resolved BGP sessions, the IGP
    view, SR tunnels and the per-device local tables (connected + static
    routes). *)

open Hoyan_net
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Printer = Hoyan_config.Printer
module Isis = Hoyan_proto.Isis
module Sr = Hoyan_proto.Sr
module Bgp = Hoyan_proto.Bgp
module Smap :
  Map.S with type key = string and type 'a t = 'a Map.Make(String).t

type t = {
  topo : Topology.t;
  configs : Types.t Smap.t;
  igp : Isis.t;
      (** the IS-IS view, every device a source and a read; a failure
          scenario's is a mask of its base's ({!fail}) *)
  owner_tbl : (Ip.t, string) Hashtbl.t;  (** address -> owning device *)
  net : Bgp.network;
  local_tables : Route.t list Smap.t;
      (** per device: connected + static (+ IS-IS loopback routes when the
          device redistributes IS-IS) *)
  tunnels : Sr.tunnel list Smap.t;
  te_aware : bool;  (** [false]: the pre-2023 IS-IS-TE modelling gap *)
  regex : string -> string -> bool;  (** the AS-path regex engine *)
}

(** The device owning an address (interface address or loopback). *)
val owner : t -> Ip.t -> string option

(** Every device's local-table rows, as one RIB. *)
val local_rib : t -> Rib.t

val config : t -> string -> Types.t option

(** Compile a model.

    [regex] injects the AS-path regex engine (the diagnosis experiments
    pass the flawed {!Hoyan_regex.Regex.Legacy.matches_str});
    [te_aware = false] reproduces the pre-2023 IS-IS-TE modelling gap.

    Session viability is {!Bgp.session_live}. *)
val build :
  ?te_aware:bool ->
  ?regex:(string -> string -> bool) ->
  Topology.t ->
  Types.t Smap.t ->
  t

(** [patch t ?topo configs] compiles a patched network — [configs] over
    [topo] (default [t]'s) — with [t]'s [te_aware] and [regex]: the one
    rule for compiling a patched network, so a patched model keeps its
    base's modelling choices. *)
val patch : t -> ?topo:Topology.t -> Types.t Smap.t -> t

(** [fail t ops] is [t] with the failures [ops] (link and device
    removals) applied: the model {!apply_change_plan} gives for the plan of
    those ops, except that its IGP view is {!Isis.fail} of [t]'s, a mask
    over the base graph rather than a recomputation.  Without a device
    removal the configs and devices are [t]'s, so the result shares
    [t]'s owner table, VSBs and direct and static routes and compiles
    only what reads the IGP or the links again.  Raises
    [Invalid_argument] on an op that adds a device or a link. *)
val fail : t -> Hoyan_config.Change_plan.topo_op list -> t

(** Apply a change plan ({!Hoyan_config.Change_plan.apply}: topology
    ops, then per-device command blocks in each device's own dialect) and
    {!patch} the result.  The per-block reports carry parse and deletion
    errors — risk signals surfaced by the verification layer (Table 6
    "incorrect commands"). *)
val apply_change_plan :
  t ->
  Hoyan_config.Change_plan.t ->
  t * Hoyan_config.Change_plan.apply_report list

(** Total configuration line count across the model (Table-1 style
    statistics). *)
val total_config_lines : t -> int
