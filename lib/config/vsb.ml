(** Vendor-specific behaviours (VSBs).

    Table 5 of the paper lists 16 behaviours that different vendors
    interpret differently.  We encode each as a dimension of a vendor
    {e semantic profile}; the simulator consults the profile of the route's
    device at every decision point.  The diagnosis framework's differential
    tester ({!Hoyan_diag.Vsb_test}) re-detects all 16 dimensions by
    simulating the same scenario under two profiles and diffing RIBs. *)

type t = {
  vendor : string;
  (* --- policy application --- *)
  missing_policy_accepts : bool;
      (** "missing route policy": accept updates when no policy is
          configured on the neighbor. *)
  undefined_policy_accepts : bool;
      (** "undefined route policy": accept updates when the applied policy
          name has no definition. *)
  default_policy_action_permit : bool;
      (** "default route policy": accept an update matching no explicit
          node of the policy. *)
  undefined_filter_matches : bool;
      (** "undefined policy filter": a match on an undefined
          prefix/community list is treated as always-matching (or never). *)
  no_explicit_action_permits : bool;
      (** "no explicit permit/deny": action of a matching node that carries
          neither permit nor deny. *)
  (* --- attribute defaults --- *)
  default_pref_ebgp : int;
  default_pref_ibgp : int;
      (** "default BGP preference": admin-distance defaults per vendor. *)
  weight_after_redistribution : int option;
      (** "weight after redistribution": default weight stamped on routes
          redistributed into BGP ([None] = leave 0). *)
  (* --- AS-path handling --- *)
  adding_own_asn : bool;
      (** "adding own ASN": own ASN prepended even after a policy
          overwrites the AS path. *)
  aggregate_common_prefix : bool;
      (** "common AS path prefix": aggregation without AS-set carries the
          common prefix of the component paths (vs an empty path). *)
  (* --- VRF leaking --- *)
  vrf_export_on_global_leak : bool;
      (** "VRF export policy": export policy also applied to global iBGP
          routes leaked into VPNv4. *)
  releak_routes : bool;
      (** "re-leaking routes": routes leaked into global VPNv4 from a VRF
          may be re-leaked into another VRF based on RT. *)
  (* --- connected /32 handling --- *)
  redistribute_host32 : bool;
      (** "redistributing /32 route": the extra /32 produced by a non-/32
          direct interface route can be redistributed. *)
  send_host32_to_peer : bool;
      (** "sending /32 route to peer". *)
  (* --- SR interaction --- *)
  sr_igp_cost_zero : bool;
      (** "IGP cost for SR": IGP cost treated as 0 when the destination is
          reached via an SR tunnel (the Figure-9 root cause). *)
  (* --- configuration interpretation --- *)
  inherit_subviews : bool;
      (** "inheriting views": configuration options inherited in
          sub-views. *)
  isolation_by_policy : bool;
      (** "device isolation": maintenance isolation expressed through
          policies (vs a dedicated isolate knob). *)
  (* --- prefix-list family quirk (Figure 10b) --- *)
  ip_prefix_permits_other_family : bool;
      (** With the vendor of §6.1's second case, an [ip-prefix] match only
          checks IPv4 prefixes and {e permits all IPv6 prefixes} by
          default. *)
}

(** Vendor A: modelled after an IOS-like implementation. *)
let vendor_a =
  {
    vendor = "vendorA";
    missing_policy_accepts = true;
    undefined_policy_accepts = true;
    default_policy_action_permit = false;
    undefined_filter_matches = true;
    no_explicit_action_permits = true;
    default_pref_ebgp = 20;
    default_pref_ibgp = 200;
    weight_after_redistribution = Some 32768;
    adding_own_asn = true;
    aggregate_common_prefix = false;
    vrf_export_on_global_leak = false;
    releak_routes = false;
    redistribute_host32 = true;
    send_host32_to_peer = false;
    sr_igp_cost_zero = true;
    inherit_subviews = false;
    isolation_by_policy = true;
    ip_prefix_permits_other_family = false;
  }

(** Vendor B: modelled after a VRP-like implementation. *)
let vendor_b =
  {
    vendor = "vendorB";
    missing_policy_accepts = false;
    undefined_policy_accepts = false;
    default_policy_action_permit = true;
    undefined_filter_matches = false;
    no_explicit_action_permits = false;
    default_pref_ebgp = 255;
    default_pref_ibgp = 255;
    weight_after_redistribution = None;
    adding_own_asn = false;
    aggregate_common_prefix = true;
    vrf_export_on_global_leak = true;
    releak_routes = true;
    redistribute_host32 = false;
    send_host32_to_peer = true;
    sr_igp_cost_zero = false;
    inherit_subviews = true;
    isolation_by_policy = false;
    ip_prefix_permits_other_family = true;
  }

let builtin_profiles = [ vendor_a; vendor_b ]

(* Registry for synthetic profiles used by the differential-testing
   harness (per-dimension flipped profiles). *)
let registry : t list ref = ref []

let register (p : t) = registry := p :: !registry

let profiles = builtin_profiles

let of_vendor name =
  match List.find_opt (fun p -> String.equal p.vendor name) !registry with
  | Some p -> Some p
  | None -> List.find_opt (fun p -> String.equal p.vendor name) builtin_profiles

(** The profile a device config runs under; vendors without a registered
    profile fall back to vendor A. *)
let of_config (cfg : Types.t) =
  match of_vendor cfg.Types.dc_vendor with Some v -> v | None -> vendor_a

let of_vendor_exn name =
  match of_vendor name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Vsb.of_vendor_exn: %s" name)

(** The 16 Table-5 dimensions as (name, exists-in-profile-difference)
    pairs, used by the differential-testing bench for Table 5. *)
let dimension_names =
  [
    "missing route policy";
    "undefined route policy";
    "default route policy";
    "undefined policy filter";
    "no explicit permit/deny";
    "default BGP preference";
    "weight after redistribution";
    "adding own ASN";
    "common AS path prefix";
    "VRF export policy";
    "re-leaking routes";
    "redistributing /32 route";
    "sending /32 route to peer";
    "IGP cost for SR";
    "inheriting views";
    "device isolation";
  ]

(** Project a profile onto a named dimension (string rendering), used to
    check that two profiles actually differ in that dimension. *)
let dimension_value t = function
  | "missing route policy" -> string_of_bool t.missing_policy_accepts
  | "undefined route policy" -> string_of_bool t.undefined_policy_accepts
  | "default route policy" -> string_of_bool t.default_policy_action_permit
  | "undefined policy filter" -> string_of_bool t.undefined_filter_matches
  | "no explicit permit/deny" -> string_of_bool t.no_explicit_action_permits
  | "default BGP preference" ->
      Printf.sprintf "%d/%d" t.default_pref_ebgp t.default_pref_ibgp
  | "weight after redistribution" -> (
      match t.weight_after_redistribution with
      | Some w -> string_of_int w
      | None -> "none")
  | "adding own ASN" -> string_of_bool t.adding_own_asn
  | "common AS path prefix" -> string_of_bool t.aggregate_common_prefix
  | "VRF export policy" -> string_of_bool t.vrf_export_on_global_leak
  | "re-leaking routes" -> string_of_bool t.releak_routes
  | "redistributing /32 route" -> string_of_bool t.redistribute_host32
  | "sending /32 route to peer" -> string_of_bool t.send_host32_to_peer
  | "IGP cost for SR" -> string_of_bool t.sr_igp_cost_zero
  | "inheriting views" -> string_of_bool t.inherit_subviews
  | "device isolation" -> string_of_bool t.isolation_by_policy
  | dim -> invalid_arg (Printf.sprintf "Vsb.dimension_value: %s" dim)


(** [flip t dim] returns a copy of [t] differing from it in exactly the
    named Table-5 dimension (booleans negated, numeric defaults changed),
    renamed so it can be registered for differential testing. *)
let flip (t : t) (dim : string) : t =
  let t' =
    match dim with
    | "missing route policy" ->
        { t with missing_policy_accepts = not t.missing_policy_accepts }
    | "undefined route policy" ->
        { t with undefined_policy_accepts = not t.undefined_policy_accepts }
    | "default route policy" ->
        { t with
          default_policy_action_permit = not t.default_policy_action_permit }
    | "undefined policy filter" ->
        { t with undefined_filter_matches = not t.undefined_filter_matches }
    | "no explicit permit/deny" ->
        { t with no_explicit_action_permits = not t.no_explicit_action_permits }
    | "default BGP preference" ->
        { t with
          default_pref_ebgp = t.default_pref_ebgp + 100;
          default_pref_ibgp = t.default_pref_ibgp + 50 }
    | "weight after redistribution" ->
        { t with
          weight_after_redistribution =
            (match t.weight_after_redistribution with
            | Some _ -> None
            | None -> Some 32768) }
    | "adding own ASN" -> { t with adding_own_asn = not t.adding_own_asn }
    | "common AS path prefix" ->
        { t with aggregate_common_prefix = not t.aggregate_common_prefix }
    | "VRF export policy" ->
        { t with vrf_export_on_global_leak = not t.vrf_export_on_global_leak }
    | "re-leaking routes" -> { t with releak_routes = not t.releak_routes }
    | "redistributing /32 route" ->
        { t with redistribute_host32 = not t.redistribute_host32 }
    | "sending /32 route to peer" ->
        { t with send_host32_to_peer = not t.send_host32_to_peer }
    | "IGP cost for SR" -> { t with sr_igp_cost_zero = not t.sr_igp_cost_zero }
    | "inheriting views" -> { t with inherit_subviews = not t.inherit_subviews }
    | "device isolation" ->
        { t with isolation_by_policy = not t.isolation_by_policy }
    | d -> invalid_arg (Printf.sprintf "Vsb.flip: unknown dimension %s" d)
  in
  { t' with vendor = t.vendor ^ "!" ^ dim }
