(** Traffic simulation: input flows -> forwarding paths and link loads
    (paper §3.1).

    Forwarding follows each router's FIB hop by hop; ECMP splits a flow's
    volume equally across equal-cost branches (BGP multipath and IGP
    ECMP); SR-policy tunnels override hop-by-hop forwarding towards their
    endpoints; PBR rules bound to the ingress interface override the FIB;
    interface ACLs drop matching traffic.  Flow equivalence classes
    (same LPM on every FIB, same ACL/PBR behaviour) reduce the number of
    walks. *)

open Hoyan_net

(** Per-device FIBs (default VRF), as longest-prefix-match tries. *)
type fib = (string, Route.t list Trie.Dual.t) Hashtbl.t

(** The install rule for one (device, prefix) slot's rows: the selected
    (Best/Ecmp) routes of the lowest-admin-preference protocol,
    [Route.compare]-sorted; [[]] when nothing is installed.  The one
    definition {!build_fibs} and {!patch_fibs} share. *)
val install : Route.t list -> Route.t list

(** Build FIBs from a global RIB: every default-VRF slot binds its
    {!install}ed routes (trie contents depend on the row set, not list
    order); a device with nothing installed gets no trie.  Each device's
    trie is built in one pass over its sorted chunk ({!Rib.by_device}),
    where a slot is a run of consecutive rows, and the devices run on
    {!Parallel.map} domains. *)
val build_fibs : Rib.t -> fib

val fib_lookup : fib -> string -> Ip.t -> (Prefix.t * Route.t list) option

type path = { hops : string list; fraction : float }

type walk_result = {
  w_paths : path list;  (** delivered paths (capped at 128) *)
  w_edges : ((string * string) * float) list;  (** traversed edge fractions *)
  w_delivered : float;
  w_dropped : float;
  w_looped : float;
}

(** Walk one flow from its ingress device (used directly by the
    root-cause analysis workflow, §5.2). *)
val walk_flow : Model.t -> fib -> Flow.t -> walk_result

(** The flow's equivalence-class key: ingress, the destination's LPM
    result on every FIB, and the ACL/PBR match signature.  Reference
    implementation, O(devices) per flow — {!run} uses the precomputed
    {!ec_ctx} path instead. *)
val flow_ec_key : Model.t -> fib -> Flow.t -> string

(** Precomputed EC-keying context: a union trie of every installed
    prefix (one LPM keys the whole per-device LPM vector) plus resolved
    ACL/PBR match contexts. *)
type ec_ctx

val ec_ctx : Model.t -> fib -> ec_ctx

(** The union trie's prefixes, in trie order. *)
val union_prefixes : ec_ctx -> Prefix.t list

(** A base FIB set patched slot by slot. *)
type fib_patch = {
  fp_fibs : fib;
  fp_prefixes : int;  (** distinct prefixes among the patched slots *)
  fp_devices : int;  (** devices whose trie changed *)
  fp_union : (Prefix.t * bool) list;
      (** union-membership flips against the base EC context: the prefix,
          and whether some device binds it after the patch *)
}

(** [patch_fibs ~base ~base_ecx slots] rebinds each [(device, prefix,
    rows)] slot of a copy of [base] to [install rows] with
    [Trie.Dual.update] ([[]] removes the binding; a device whose trie
    empties is dropped, a device gaining its first route gets a trie),
    and records which changed prefixes enter or leave the union of
    [base_ecx].  Equal to a from-scratch [build_fibs] over the
    post-change RIB when [base] was built from the pre-change RIB and
    [slots] covers, with its post-change default-VRF rows, every slot
    whose rows changed.  Cost: slots × trie depth. *)
val patch_fibs :
  base:fib -> base_ecx:ec_ctx -> (string * Prefix.t * Route.t list) list ->
  fib_patch

(** [base]'s union trie with the patch's flips applied, and the ACL/PBR
    contexts resolved from the given (patched) model: equal to [ec_ctx]
    over the patched FIBs. *)
val patch_ec_ctx : base:ec_ctx -> Model.t -> fib_patch -> ec_ctx

(** O(address-bits) EC key; partitions at least as finely as
    {!flow_ec_key} (flows it merges are merged by the reference key). *)
val flow_ec_key_pre : ec_ctx -> Flow.t -> string

type flow_result = {
  f_flow : Flow.t;
  f_paths : path list;
  f_delivered : float;
  f_dropped : float;
  f_looped : float;
}

type result = {
  flow_results : flow_result list;
  link_load : (string * string, float) Hashtbl.t;  (** bits per second *)
  flow_count : int;  (** total represented flow population *)
  ec_count : int;
  compression : float;  (** flow records / equivalence classes *)
}

(** Simulate all flows against a global RIB.  [use_ecs=false] walks every
    record individually (ablation; loads must agree).  [fibs] and [ecx]
    supply a prebuilt FIB set and EC-keying context (then [rib] is
    ignored) — the incremental engine's spliced or base tries, built
    once and shared read-only across plans and failure scenarios. *)
val run :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?use_ecs:bool ->
  ?fibs:fib ->
  ?ecx:ec_ctx ->
  Model.t ->
  rib:Rib.t ->
  flows:Flow.t list ->
  unit ->
  result

(** Per-directed-link (link, load, utilization) triples. *)
val utilizations :
  Model.t -> result -> ((string * string) * float * float) list
