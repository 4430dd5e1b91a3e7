(** Route-policy evaluation with vendor-specific-behaviour hooks.

    This is the single place where an update is accepted/denied/rewritten
    by configuration; the BGP simulator calls it on ingress, egress and
    redistribution.  Every decision that Table 5 lists as vendor-specific
    is delegated to the device's {!Vsb.t} profile. *)

open Hoyan_net

type verdict = {
  pv_action : Types.action;
  pv_route : Route.t; (* rewritten route (meaningful when permitted) *)
  pv_aspath_overwritten : bool;
      (* a policy overwrote the AS path; interacts with the
         "adding own ASN" VSB at eBGP export time *)
  pv_matched_node : int option; (* seq of the node that decided *)
}

let denied r =
  { pv_action = Types.Deny; pv_route = r; pv_aspath_overwritten = false;
    pv_matched_node = None }

let permitted ?(overwrote = false) ?node r =
  { pv_action = Types.Permit; pv_route = r; pv_aspath_overwritten = overwrote;
    pv_matched_node = node }

(** Default regex matching for AS-path filters: full-string match with the
    production engine.  The diagnosis experiments inject {!Regex.Legacy}
    here to reproduce the flawed-regex issue class. *)
let default_regex pattern input = Hoyan_regex.Regex.matches_str pattern input

(* [Some b] as a shared constant, so the hot path allocates nothing *)
let decided b = if b then Some true else Some false

(** The clauses a route's prefix alone decides: [Some m] for a
    prefix-list or family clause ([m]: does a route for [p] match it),
    [None] for every other clause. *)
let prefix_clause (cfg : Types.t) (vsb : Vsb.t) (clause : Types.match_clause)
    (p : Prefix.t) : bool option =
  match clause with
  | Types.Match_prefix_list name -> (
      match Types.find_prefix_list cfg name with
      | None -> decided vsb.Vsb.undefined_filter_matches
      | Some pl ->
          if pl.Types.pl_family <> Prefix.family p then
            (* Figure 10(b): an [ip-prefix] list applied to an IPv6 route —
               this vendor checks only IPv4 prefixes and permits the other
               family wholesale. *)
            decided vsb.Vsb.ip_prefix_permits_other_family
          else
            match Types.prefix_list_eval pl p with
            | Some Types.Permit -> Some true
            | Some Types.Deny | None -> Some false)
  | Types.Match_family f -> decided (Prefix.family p = f)
  | _ -> None

let eval_match ?(regex = default_regex) (cfg : Types.t) (vsb : Vsb.t)
    (clause : Types.match_clause) (r : Route.t) : bool =
  match clause with
  | Types.Match_prefix_list _ | Types.Match_family _ -> (
      match prefix_clause cfg vsb clause r.Route.prefix with
      | Some m -> m
      | None -> false)
  | Types.Match_community_list name -> (
      match Types.find_community_list cfg name with
      | None -> vsb.Vsb.undefined_filter_matches
      | Some cl -> (
          match Types.community_list_eval cl r.Route.communities with
          | Some Types.Permit -> true
          | Some Types.Deny | None -> false))
  | Types.Match_aspath_filter name -> (
      match Types.find_aspath_filter cfg name with
      | None -> vsb.Vsb.undefined_filter_matches
      | Some af ->
          let path_str = As_path.to_string r.Route.as_path in
          let rec eval = function
            | [] -> false
            | (e : Types.aspath_entry) :: rest ->
                if regex e.Types.ae_regex path_str then
                  e.Types.ae_action = Types.Permit
                else eval rest
          in
          eval af.Types.af_entries)
  | Types.Match_nexthop p -> (
      match r.Route.nexthop with
      | Some nh -> Prefix.mem nh p
      | None -> false)
  | Types.Match_tag t -> r.Route.tag = t
  | Types.Match_protocol p -> r.Route.proto = p

let apply_set (r : Route.t) (clause : Types.set_clause) :
    Route.t * bool (* overwrote AS path *) =
  match clause with
  | Types.Set_local_pref v -> (Route.with_local_pref r v, false)
  | Types.Set_med v -> (Route.with_med r v, false)
  | Types.Set_weight v -> (Route.with_weight r v, false)
  | Types.Set_preference v -> ({ r with Route.preference = v }, false)
  | Types.Set_tag v -> ({ r with Route.tag = v }, false)
  | Types.Set_nexthop ip -> ({ r with Route.nexthop = Some ip }, false)
  | Types.Set_communities (op, cs) ->
      let communities =
        match op with
        | Types.Comm_replace -> Community.Set.of_list cs
        | Types.Comm_add ->
            Community.Set.union r.Route.communities (Community.Set.of_list cs)
        | Types.Comm_remove ->
            Community.Set.diff r.Route.communities (Community.Set.of_list cs)
      in
      ({ r with Route.communities }, false)
  | Types.Set_aspath_prepend (asn, count) ->
      ({ r with Route.as_path = As_path.prepend_n asn count r.Route.as_path },
       false)
  | Types.Set_aspath_overwrite asns ->
      ({ r with Route.as_path = As_path.of_asns asns }, true)

(** The walk-free outcomes of a policy evaluation, each decided by a VSB:
    no policy attached ("missing route policy"; only eBGP sessions can
    deny — iBGP and internal attachment points such as redistribution
    and VRF leaking accept), a name the config does not define
    ("undefined route policy"), and a route matching no node ("default
    route policy"). *)
type fallback = No_policy | Undefined_policy | No_node_matched

let fallback_permits (vsb : Vsb.t) ~ebgp = function
  | No_policy -> (not ebgp) || vsb.Vsb.missing_policy_accepts
  | Undefined_policy -> vsb.Vsb.undefined_policy_accepts
  | No_node_matched -> vsb.Vsb.default_policy_action_permit

(** The action of a matched node; one without an explicit permit/deny is
    decided by the "no explicit permit/deny" VSB. *)
let node_action (vsb : Vsb.t) (node : Types.policy_node) : Types.action =
  match node.Types.pn_action with
  | Some a -> a
  | None ->
      if vsb.Vsb.no_explicit_action_permits then Types.Permit else Types.Deny

(** Evaluate policy [name] of [cfg] on route [r]: first-match over the
    policy's nodes, with {!fallback_permits} deciding when no node can
    ([ebgp] defaults to [true]) and {!node_action} deciding a matched
    node's action. *)
let eval ?(regex = default_regex) ?(ebgp = true) (cfg : Types.t) (vsb : Vsb.t)
    (name : string option) (r : Route.t) : verdict =
  match name with
  | None ->
      if fallback_permits vsb ~ebgp No_policy then permitted r else denied r
  | Some name -> (
      match Types.find_policy cfg name with
      | None ->
          if fallback_permits vsb ~ebgp Undefined_policy then permitted r
          else denied r
      | Some policy ->
          let rec eval_nodes r overwrote = function
            | [] ->
                if fallback_permits vsb ~ebgp No_node_matched then
                  permitted ~overwrote r
                else denied r
            | (node : Types.policy_node) :: rest ->
                let all_match =
                  List.for_all
                    (fun c -> eval_match ~regex cfg vsb c r)
                    node.Types.pn_matches
                in
                if not all_match then eval_nodes r overwrote rest
                else if node_action vsb node = Types.Deny then denied r
                else
                  let r', overwrote' =
                    List.fold_left
                      (fun (acc, ow) s ->
                        let acc', ow' = apply_set acc s in
                        (acc', ow || ow'))
                      (r, overwrote) node.Types.pn_sets
                  in
                  if node.Types.pn_goto_next then eval_nodes r' overwrote' rest
                  else
                    permitted ~overwrote:overwrote' ~node:node.Types.pn_seq r'
          in
          eval_nodes r false policy.Types.rp_nodes)
