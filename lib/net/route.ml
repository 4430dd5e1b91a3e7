(** Routes: the rows of Hoyan's (global) RIB abstraction.

    A route is one path for one prefix on one device/VRF; ECMP shows up as
    several routes for the same prefix whose [route_type] is [Best]/[Ecmp].
    The [device] and [vrf] fields make a route directly usable as a row of
    the global RIB that RCL (§4) specifies over.

    The scalar BGP attributes that the decision process compares on every
    round — local-pref, MED, weight, origin, plus the address family —
    are packed into the single immutable [attrs] int ({!Attrs}), so
    attribute equality is one int compare and the packed value doubles as
    a sort key fragment in the compact RIB arenas. *)

type origin = Igp | Egp | Incomplete

let origin_to_string = function
  | Igp -> "igp"
  | Egp -> "egp"
  | Incomplete -> "incomplete"

let origin_rank = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

type proto = Bgp | Isis | Static | Direct | Aggregate | Sr_policy

let proto_to_string = function
  | Bgp -> "bgp"
  | Isis -> "isis"
  | Static -> "static"
  | Direct -> "direct"
  | Aggregate -> "aggregate"
  | Sr_policy -> "sr"

type source = Ebgp | Ibgp | Local | Redistributed

let source_to_string = function
  | Ebgp -> "ebgp"
  | Ibgp -> "ibgp"
  | Local -> "local"
  | Redistributed -> "redistributed"

type route_type = Best | Ecmp | Backup

let route_type_to_string = function
  | Best -> "BEST"
  | Ecmp -> "ECMP"
  | Backup -> "BACKUP"

(* ------------------------------------------------------------------ *)
(* Packed scalar attributes                                            *)
(* ------------------------------------------------------------------ *)

(** The packed scalar-attribute word.  Layout (high to low):

    {v bits 42..62  local_pref  (21 bits)
       bits 21..41  med         (21 bits)
       bits  4..20  weight      (17 bits)
       bits  2..3   origin      (2 bits: Igp=0 Egp=1 Incomplete=2)
       bit   0      family      (0 = IPv4, 1 = IPv6) v}

    The field order makes the natural int order of two packed words the
    lexicographic (local_pref, med, weight, origin, family) order, which
    is what {!compare} uses.  Values beyond a field's width are saturated
    at the maximum — far beyond anything the simulator or the config
    parsers produce, and saturation keeps packing total instead of
    raising mid-fixpoint. *)
module Attrs = struct
  type t = int

  let lp_max = (1 lsl 21) - 1
  let med_max = (1 lsl 21) - 1
  let weight_max = (1 lsl 17) - 1

  let sat v max = if v < 0 then 0 else if v > max then max else v

  let origin_code = function Igp -> 0 | Egp -> 1 | Incomplete -> 2
  let origin_of_code = function 0 -> Igp | 1 -> Egp | _ -> Incomplete

  let family_bit = function Ip.Ipv4 -> 0 | Ip.Ipv6 -> 1

  let pack ~local_pref ~med ~weight ~(origin : origin) ~(family : Ip.family) :
      t =
    (sat local_pref lp_max lsl 42)
    lor (sat med med_max lsl 21)
    lor (sat weight weight_max lsl 4)
    lor (origin_code origin lsl 2)
    lor family_bit family

  let local_pref (a : t) = (a lsr 42) land lp_max
  let med (a : t) = (a lsr 21) land med_max
  let weight (a : t) = (a lsr 4) land weight_max
  let origin (a : t) = origin_of_code ((a lsr 2) land 0x3)
  let family (a : t) = if a land 1 = 0 then Ip.Ipv4 else Ip.Ipv6

  let with_local_pref (a : t) v =
    a land lnot (lp_max lsl 42) lor (sat v lp_max lsl 42)

  let with_med (a : t) v =
    a land lnot (med_max lsl 21) lor (sat v med_max lsl 21)

  let with_weight (a : t) v =
    a land lnot (weight_max lsl 4) lor (sat v weight_max lsl 4)

  let with_origin (a : t) o = a land lnot (0x3 lsl 2) lor (origin_code o lsl 2)
end

type t = {
  device : string;
  vrf : string;
  prefix : Prefix.t;
  proto : proto;
  nexthop : Ip.t option; (* [None] for locally originated / connected *)
  out_iface : string option;
  attrs : Attrs.t; (* packed local_pref/med/weight/origin/family *)
  preference : int; (* admin distance; vendor-specific defaults *)
  communities : Community.Set.t;
  as_path : As_path.t;
  igp_cost : int; (* cost to reach the BGP next hop *)
  peer : string option; (* neighbor device the route was learned from *)
  source : source;
  route_type : route_type;
  tag : int;
}

let default_vrf = "global"

let make ~device ~prefix ?(vrf = default_vrf) ?(proto = Bgp) ?nexthop
    ?out_iface ?(local_pref = 100) ?(med = 0) ?(weight = 0) ?(preference = 255)
    ?(communities = Community.Set.empty) ?(as_path = As_path.empty)
    ?(origin = Igp) ?(igp_cost = 0) ?peer ?(source = Local)
    ?(route_type = Best) ?(tag = 0) () =
  {
    device;
    vrf;
    prefix;
    proto;
    nexthop;
    out_iface;
    attrs =
      Attrs.pack ~local_pref ~med ~weight ~origin ~family:(Prefix.family prefix);
    preference;
    communities;
    as_path;
    igp_cost;
    peer;
    source;
    route_type;
    tag;
  }

(* Scalar accessors over the packed word. *)
let attrs r = r.attrs
let local_pref r = Attrs.local_pref r.attrs
let med r = Attrs.med r.attrs
let weight r = Attrs.weight r.attrs
let origin r = Attrs.origin r.attrs
let family r = Attrs.family r.attrs

let selected r =
  match r.route_type with Best | Ecmp -> true | Backup -> false

let with_local_pref r v =
  let attrs = Attrs.with_local_pref r.attrs v in
  if attrs = r.attrs then r else { r with attrs }

let with_med r v =
  let attrs = Attrs.with_med r.attrs v in
  if attrs = r.attrs then r else { r with attrs }

let with_weight r v =
  let attrs = Attrs.with_weight r.attrs v in
  if attrs = r.attrs then r else { r with attrs }

let with_origin r o =
  let attrs = Attrs.with_origin r.attrs o in
  if attrs = r.attrs then r else { r with attrs }

(* Cheap discriminants first (the packed attrs word covers four scalar
   fields in one compare), strings and structured values last. *)
let equal (a : t) (b : t) =
  a == b
  || (a.attrs = b.attrs && a.tag = b.tag
     && a.igp_cost = b.igp_cost
     && a.preference = b.preference
     && a.proto = b.proto && a.source = b.source
     && a.route_type = b.route_type
     && String.equal a.device b.device
     && String.equal a.vrf b.vrf
     && Prefix.equal a.prefix b.prefix
     && Option.equal Ip.equal a.nexthop b.nexthop
     && Option.equal String.equal a.out_iface b.out_iface
     && Option.equal String.equal a.peer b.peer
     && As_path.equal a.as_path b.as_path
     && Community.Set.equal a.communities b.communities)

let compare (a : t) (b : t) =
  if a == b then 0
  else
    let c = String.compare a.device b.device in
    if c <> 0 then c
    else
      let c = String.compare a.vrf b.vrf in
      if c <> 0 then c
      else
        let c = Prefix.compare a.prefix b.prefix in
        if c <> 0 then c
        else
          let c = Stdlib.compare a.proto b.proto in
          if c <> 0 then c
          else
            let c = Option.compare Ip.compare a.nexthop b.nexthop in
            if c <> 0 then c
            else
              let c = Option.compare String.compare a.out_iface b.out_iface in
              if c <> 0 then c
              else
                let c = Int.compare a.attrs b.attrs in
                if c <> 0 then c
                else
                  let c = Int.compare a.preference b.preference in
                  if c <> 0 then c
                  else
                    let c =
                      Community.Set.compare a.communities b.communities
                    in
                    if c <> 0 then c
                    else
                      let c = As_path.compare a.as_path b.as_path in
                      if c <> 0 then c
                      else
                        let c = Int.compare a.igp_cost b.igp_cost in
                        if c <> 0 then c
                        else
                          let c =
                            Option.compare String.compare a.peer b.peer
                          in
                          if c <> 0 then c
                          else
                            let c = Stdlib.compare a.source b.source in
                            if c <> 0 then c
                            else
                              let c =
                                Stdlib.compare a.route_type b.route_type
                              in
                              if c <> 0 then c else Int.compare a.tag b.tag

let nexthop_string r =
  match r.nexthop with Some ip -> Ip.to_string ip | None -> "self"

let to_string r =
  Printf.sprintf "%s|%s|%s|%s|nh=%s|lp=%d|med=%d|comm=[%s]|as=[%s]|%s" r.device
    r.vrf
    (Prefix.to_string r.prefix)
    (proto_to_string r.proto) (nexthop_string r) (local_pref r) (med r)
    (Community.Set.to_string r.communities)
    (As_path.to_string r.as_path)
    (route_type_to_string r.route_type)

let pp ppf r = Format.pp_print_string ppf (to_string r)
