(** Equivalence classes of input routes (§3.1).

    Two input routes are equivalent when (1) they are injected into the
    same router and VRF, (2) their prefixes have the same matching results
    across all prefix sets in the network and trigger the same aggregate
    prefixes on all routers, and (3) they carry the same values for all
    BGP attributes.

    Because best-path selection interacts {e all} copies of a prefix (a
    multi-homed prefix announced at two routers is one simulation unit),
    the classes are materialized at the granularity of prefixes: two
    prefixes belong to the same class when their route multisets are
    pairwise equivalent under (1)–(3).  Hoyan then simulates the full
    route set of one representative prefix per class — "one route for
    each EC" — and replicates the resulting rows for the other member
    prefixes.  This gives a ~4x input reduction on the paper's WAN. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Smap = Map.Make (String)

(** Precomputed network-wide prefix-matching context: every prefix list
    of every device, plus all aggregates. *)
type signature_ctx = {
  sig_prefix_lists : (string * Types.prefix_list) list; (* dev#name, pl *)
  sig_aggregates : (string * Types.aggregate) list;
}

let signature_ctx (configs : Types.t Smap.t) : signature_ctx =
  let pls =
    Smap.fold
      (fun dev cfg acc ->
        Types.Smap.fold
          (fun name pl acc -> (dev ^ "#" ^ name, pl) :: acc)
          cfg.Types.dc_prefix_lists acc)
      configs []
  in
  let ags =
    Smap.fold
      (fun dev cfg acc ->
        List.fold_left
          (fun acc ag -> (dev, ag) :: acc)
          acc cfg.Types.dc_bgp.Types.bgp_aggregates)
      configs []
  in
  { sig_prefix_lists = pls; sig_aggregates = ags }

(** Condition (2): the prefix's matching results across all prefix sets
    and the aggregates it triggers. *)
let match_signature (ctx : signature_ctx) (p : Prefix.t) : string =
  let b = Buffer.create 128 in
  List.iter
    (fun (_, pl) ->
      let c =
        match Types.prefix_list_eval pl p with
        | Some Types.Permit -> 'P'
        | Some Types.Deny -> 'D'
        | None -> '-'
      in
      Buffer.add_char b c)
    ctx.sig_prefix_lists;
  List.iter
    (fun ((_, ag) : string * Types.aggregate) ->
      Buffer.add_char b
        (if
           Prefix.subsumes ag.Types.ag_prefix p
           && not (Prefix.equal ag.Types.ag_prefix p)
         then 'A'
         else '-'))
    ctx.sig_aggregates;
  Buffer.contents b

(** Condition (3): the propagating BGP attributes of one route.  The
    prefix length is included because exact-length prefix-list entries
    and ge/le windows can distinguish lengths even when containment
    results agree — conservative, never merges differing behaviours. *)
let attrs_signature (r : Route.t) : string =
  Printf.sprintf "%d|%d|%s|%s|%s|%s|%d" (Route.local_pref r) (Route.med r)
    (Community.Set.to_string r.Route.communities)
    (As_path.to_string r.Route.as_path)
    (Route.origin_to_string (Route.origin r))
    (Route.nexthop_string r)
    (Prefix.len r.Route.prefix)

(** The class key of a prefix given all its input routes: the match
    signature plus the sorted (device, vrf, attrs) multiset. *)
let prefix_key (ctx : signature_ctx) (p : Prefix.t) (routes : Route.t list) :
    string =
  let route_sigs =
    List.map
      (fun (r : Route.t) ->
        Printf.sprintf "%s|%s|%s" r.Route.device r.Route.vrf
          (attrs_signature r))
      routes
    |> List.sort String.compare
  in
  match_signature ctx p ^ "||" ^ String.concat "&&" route_sigs

type group = {
  rep_prefix : Prefix.t;
  rep_routes : Route.t list; (* all input routes of the representative *)
  member_prefixes : Prefix.t list; (* including the representative *)
}

(** Group the input routes into prefix-level equivalence classes, in
    first-appearance order. *)
let group_routes (ctx : signature_ctx) (routes : Route.t list) : group list =
  (* prefixes with their route sets, in first-appearance order *)
  let by_prefix = Hashtbl.create (List.length routes) in
  let order = ref [] in
  List.iter
    (fun (r : Route.t) ->
      match Hashtbl.find_opt by_prefix r.Route.prefix with
      | Some rs -> Hashtbl.replace by_prefix r.Route.prefix (r :: rs)
      | None ->
          Hashtbl.add by_prefix r.Route.prefix [ r ];
          order := r.Route.prefix :: !order)
    routes;
  let classes = Hashtbl.create 256 in
  let class_order = ref [] in
  List.iter
    (fun p ->
      let rs = List.rev (Hashtbl.find by_prefix p) in
      let k = prefix_key ctx p rs in
      match Hashtbl.find_opt classes k with
      | Some (rep_prefix, rep_routes, members) ->
          Hashtbl.replace classes k (rep_prefix, rep_routes, p :: members)
      | None ->
          Hashtbl.add classes k (p, rs, [ p ]);
          class_order := k :: !class_order)
    (List.rev !order);
  List.rev_map
    (fun k ->
      let rep_prefix, rep_routes, members = Hashtbl.find classes k in
      { rep_prefix; rep_routes; member_prefixes = List.rev members })
    !class_order

(** Number of input routes that actually need simulating (the routes of
    the representative prefixes). *)
let simulated_routes (groups : group list) =
  List.concat_map (fun g -> g.rep_routes) groups

(** Compression ratio: total input routes / simulated input routes. *)
let compression (groups : group list) =
  let total =
    List.fold_left
      (fun n g ->
        n + (List.length g.rep_routes * List.length g.member_prefixes))
      0 groups
  in
  let simulated =
    List.fold_left (fun n g -> n + List.length g.rep_routes) 0 groups
  in
  if simulated = 0 then 1.0 else float_of_int total /. float_of_int simulated
