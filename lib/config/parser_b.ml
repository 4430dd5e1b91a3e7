(** Configuration parser for vendor B (a VRP-like dialect).

    {v
    sysname BORDER-2
    interface Eth0
     ip address 10.0.0.2 31
     isis cost 10
    ip ip-prefix PL index 5 permit 10.0.0.0 24 less-equal 32
    route-policy RP permit node 10
     if-match ip-prefix PL
     apply local-preference 300
    bgp 65001
     peer 10.0.0.1 as-number 65002
     peer 10.0.0.1 route-policy RP import
    v}

    Note the Figure-10(b) trap this dialect reproduces: [ip ip-prefix]
    defines an {e IPv4} list; when a policy matches it against an IPv6
    route, vendor B "only checks IPv4 prefixes and permits all IPv6
    prefixes by default" (see {!Vsb.ip_prefix_permits_other_family}).
    Operators must use [ip ipv6-prefix] for IPv6. *)

open Hoyan_net
module L = Lexutil

let ( let* ) = Option.bind

let parse_action = function
  | "permit" -> Some Types.Permit
  | "deny" -> Some Types.Deny
  | _ -> None

let parse_proto = function
  | "bgp" -> Some Route.Bgp
  | "isis" -> Some Route.Isis
  | "static" -> Some Route.Static
  | "direct" -> Some Route.Direct
  | _ -> None

type state = { mutable cfg : Types.t; mutable errors : L.error list }

let err st lnum fmt =
  Printf.ksprintf
    (fun msg -> st.errors <- { L.err_line = lnum; err_msg = msg } :: st.errors)
    fmt

let sort_by f l = List.sort (fun a b -> Int.compare (f a) (f b)) l

(* The accumulation helpers mirror Parser_a; kept separate because the two
   parsers evolved independently in production (and their divergence is
   itself a source of the Table-4 "parsing" issue class). *)

let add_prefix_list st name family entry =
  let cfg = st.cfg in
  let pl =
    match Types.find_prefix_list cfg name with
    | Some pl -> pl
    | None -> { Types.pl_name = name; pl_family = family; pl_entries = [] }
  in
  let pl =
    { pl with
      Types.pl_entries =
        sort_by (fun e -> e.Types.pe_seq) (entry :: pl.Types.pl_entries) }
  in
  st.cfg <-
    { cfg with
      Types.dc_prefix_lists = Types.Smap.add name pl cfg.Types.dc_prefix_lists }

let add_community_list st name entry =
  let cfg = st.cfg in
  let cl =
    match Types.find_community_list cfg name with
    | Some cl -> cl
    | None -> { Types.cl_name = name; cl_entries = [] }
  in
  let cl =
    { cl with
      Types.cl_entries =
        sort_by (fun e -> e.Types.ce_seq) (entry :: cl.Types.cl_entries) }
  in
  st.cfg <-
    { cfg with
      Types.dc_community_lists =
        Types.Smap.add name cl cfg.Types.dc_community_lists }

let add_aspath_filter st name entry =
  let cfg = st.cfg in
  let af =
    match Types.find_aspath_filter cfg name with
    | Some af -> af
    | None -> { Types.af_name = name; af_entries = [] }
  in
  let af =
    { af with
      Types.af_entries =
        sort_by (fun e -> e.Types.ae_seq) (entry :: af.Types.af_entries) }
  in
  st.cfg <-
    { cfg with
      Types.dc_aspath_filters =
        Types.Smap.add name af cfg.Types.dc_aspath_filters }

let add_acl_entry st name entry =
  let cfg = st.cfg in
  let acl =
    match Types.find_acl cfg name with
    | Some a -> a
    | None -> { Types.acl_name = name; acl_entries = [] }
  in
  let acl =
    { acl with
      Types.acl_entries =
        sort_by (fun e -> e.Types.ace_seq) (entry :: acl.Types.acl_entries) }
  in
  st.cfg <-
    { cfg with Types.dc_acls = Types.Smap.add name acl cfg.Types.dc_acls }

let add_policy_node st name node =
  let cfg = st.cfg in
  let rp =
    match Types.find_policy cfg name with
    | Some rp -> rp
    | None -> { Types.rp_name = name; rp_nodes = [] }
  in
  let nodes =
    node
    :: List.filter (fun n -> n.Types.pn_seq <> node.Types.pn_seq) rp.Types.rp_nodes
  in
  let rp = { rp with Types.rp_nodes = sort_by (fun n -> n.Types.pn_seq) nodes } in
  st.cfg <-
    { cfg with Types.dc_policies = Types.Smap.add name rp cfg.Types.dc_policies }

(* --- clause parsers ---------------------------------------------------- *)

let parse_if_match tokens : Types.match_clause option =
  match tokens with
  | [ "ip-prefix"; name ] | [ "ipv6-prefix"; name ] ->
      Some (Types.Match_prefix_list name)
  | [ "community-filter"; name ] -> Some (Types.Match_community_list name)
  | [ "as-path-filter"; name ] -> Some (Types.Match_aspath_filter name)
  | [ "next-hop"; p ] ->
      let* p = Prefix.of_string p in
      Some (Types.Match_nexthop p)
  | [ "tag"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Match_tag n)
  | [ "protocol"; p ] ->
      let* p = parse_proto p in
      Some (Types.Match_protocol p)
  | _ -> None

let parse_communities toks =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest ->
        let* c = Community.of_string c in
        go (c :: acc) rest
  in
  go [] toks

let parse_apply tokens : Types.set_clause option =
  match tokens with
  | [ "local-preference"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_local_pref n)
  | [ "cost"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_med n)
  | [ "preferred-value"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_weight n)
  | [ "preference"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_preference n)
  | [ "tag"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_tag n)
  | [ "ip-address"; "next-hop"; ip ] ->
      let* ip = Ip.of_string ip in
      Some (Types.Set_nexthop ip)
  | "as-path" :: rest -> (
      match List.rev rest with
      | "overwrite" :: asns_rev ->
          let* asns =
            List.fold_left
              (fun acc a ->
                let* acc = acc in
                let* a = L.int_opt a in
                Some (a :: acc))
              (Some []) (List.rev asns_rev)
          in
          Some (Types.Set_aspath_overwrite (List.rev asns))
      | "additive" :: asns_rev -> (
          match List.rev asns_rev with
          | [ asn ] ->
              let* asn = L.int_opt asn in
              Some (Types.Set_aspath_prepend (asn, 1))
          | [ asn; count ] ->
              let* asn = L.int_opt asn in
              let* count = L.int_opt count in
              Some (Types.Set_aspath_prepend (asn, count))
          | _ -> None)
      | _ -> None)
  | "community-delete" :: comms ->
      let* cs = parse_communities comms in
      Some (Types.Set_communities (Types.Comm_remove, cs))
  | "community" :: rest ->
      let additive, comms =
        match List.rev rest with
        | "additive" :: r -> (true, List.rev r)
        | _ -> (false, rest)
      in
      let* cs = parse_communities comms in
      Some
        (Types.Set_communities
           ((if additive then Types.Comm_add else Types.Comm_replace), cs))
  | _ -> None

(* --- stanza parsers ---------------------------------------------------- *)

let parse_interface st (header : L.line) (body : L.line list) =
  let name = match header.L.tokens with _ :: n :: _ -> n | _ -> "" in
  let iface =
    ref
      { Types.if_name = name; if_addr = None; if_plen = 32;
        if_bandwidth = Types.default_bandwidth; if_acl_in = None }
  in
  let isis_cost = ref None and isis_te = ref false in
  List.iter
    (fun (l : L.line) ->
      match l.L.tokens with
      | [ "ip"; "address"; a; len ] | [ "ipv6"; "address"; a; len ] -> (
          match (Ip.of_string a, L.int_opt len) with
          | Some a, Some len when len >= 0 && len <= Ip.family_bits (Ip.family a)
            ->
              iface := { !iface with Types.if_addr = Some a; if_plen = len }
          | _ -> err st l.L.lnum "bad interface address")
      | [ "bandwidth"; b ] -> (
          match L.float_opt b with
          | Some b -> iface := { !iface with Types.if_bandwidth = b }
          | None -> err st l.L.lnum "bad bandwidth")
      | [ "traffic-filter"; "inbound"; "acl"; acl ] ->
          iface := { !iface with Types.if_acl_in = Some acl }
      | [ "isis"; "enable"; _ ] -> ()
      | [ "isis"; "cost"; c ] -> (
          match L.int_opt c with
          | Some v when v >= 0 -> isis_cost := Some v
          | _ -> err st l.L.lnum "bad isis cost %s" c)
      | [ "isis"; "traffic-eng" ] -> isis_te := true
      | _ -> err st l.L.lnum "unknown interface line: %s" l.L.raw)
    body;
  st.cfg <- { st.cfg with Types.dc_ifaces = !iface :: st.cfg.Types.dc_ifaces };
  match !isis_cost with
  | Some c ->
      let ii = { Types.ii_name = name; ii_cost = c; ii_te = !isis_te } in
      st.cfg <-
        { st.cfg with
          Types.dc_isis =
            { st.cfg.Types.dc_isis with
              Types.isis_enabled = true;
              isis_ifaces = ii :: st.cfg.Types.dc_isis.Types.isis_ifaces } }
  | None -> ()

let parse_route_policy st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | "route-policy" :: name :: rest -> (
      let action, seq =
        match rest with
        | [ a; "node"; s ] -> (parse_action a, L.int_opt s)
        | [ "node"; s ] -> (None, L.int_opt s) (* no explicit action: VSB *)
        | _ -> (None, None)
      in
      match seq with
      | None -> err st header.L.lnum "bad route-policy header: %s" header.L.raw
      | Some seq ->
          let matches = ref [] and sets = ref [] and goto_next = ref false in
          List.iter
            (fun (l : L.line) ->
              match l.L.tokens with
              | "if-match" :: rest -> (
                  match parse_if_match rest with
                  | Some m -> matches := m :: !matches
                  | None -> err st l.L.lnum "unknown if-match: %s" l.L.raw)
              | "apply" :: rest -> (
                  match parse_apply rest with
                  | Some s -> sets := s :: !sets
                  | None -> err st l.L.lnum "unknown apply: %s" l.L.raw)
              | [ "goto"; "next-node" ] -> goto_next := true
              | _ -> err st l.L.lnum "unknown route-policy line: %s" l.L.raw)
            body;
          add_policy_node st name
            {
              Types.pn_seq = seq;
              pn_action = action;
              pn_matches = List.rev !matches;
              pn_sets = List.rev !sets;
              pn_goto_next = !goto_next;
            })
  | _ -> err st header.L.lnum "bad route-policy header"

let parse_bgp st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | [ "bgp"; asn ] -> (
      match L.int_opt asn with
      | None -> err st header.L.lnum "bad BGP ASN"
      | Some asn ->
          let bgp = ref { st.cfg.Types.dc_bgp with Types.bgp_asn = asn } in
          let update_peer ip f =
            match Ip.of_string ip with
            | None -> None
            | Some addr ->
                let nb =
                  match
                    List.find_opt
                      (fun n -> Ip.equal n.Types.nb_addr addr)
                      !bgp.Types.bgp_neighbors
                  with
                  | Some nb -> nb
                  | None ->
                      {
                        Types.nb_addr = addr;
                        nb_remote_asn = 0;
                        nb_import = None;
                        nb_export = None;
                        nb_rr_client = false;
                        nb_next_hop_self = false;
                        nb_add_paths = 0;
                        nb_vrf = Route.default_vrf;
                      }
                in
                let nb = f nb in
                bgp :=
                  { !bgp with
                    Types.bgp_neighbors =
                      nb
                      :: List.filter
                           (fun n -> not (Ip.equal n.Types.nb_addr addr))
                           !bgp.Types.bgp_neighbors };
                Some ()
          in
          List.iter
            (fun (l : L.line) ->
              let bad () = err st l.L.lnum "unknown bgp line: %s" l.L.raw in
              let ok = function Some () -> () | None -> bad () in
              match l.L.tokens with
              | [ "router-id"; ip ] -> (
                  match Ip.of_string ip with
                  | Some ip -> bgp := { !bgp with Types.bgp_router_id = Some ip }
                  | None -> bad ())
              | "network" :: a :: len :: rest -> (
                  let vrf =
                    match rest with
                    | [ "vpn-instance"; v ] -> Some v
                    | [] -> Some Route.default_vrf
                    | _ -> None
                  in
                  match (Ip.of_string a, L.int_opt len, vrf) with
                  | Some a, Some len, Some vrf -> (
                      match Prefix.make_opt a len with
                      | Some p ->
                          bgp :=
                            { !bgp with
                              Types.bgp_networks =
                                (p, vrf) :: !bgp.Types.bgp_networks }
                      | None -> bad ())
                  | _ -> bad ())
              | "aggregate" :: a :: len :: opts -> (
                  match
                    (Option.bind
                       (match (Ip.of_string a, L.int_opt len) with
                       | Some a, Some len -> Some (a, len)
                       | _ -> None)
                       (fun (a, len) -> Prefix.make_opt a len))
                  with
                  | Some agg_prefix ->
                      let rec scan as_set summary vrf = function
                        | [] -> Some (as_set, summary, vrf)
                        | "as-set" :: r -> scan true summary vrf r
                        | "detail-suppressed" :: r -> scan as_set true vrf r
                        | "vpn-instance" :: v :: r -> scan as_set summary v r
                        | _ -> None
                      in
                      (match scan false false Route.default_vrf opts with
                      | Some (as_set, summary_only, vrf) ->
                          bgp :=
                            { !bgp with
                              Types.bgp_aggregates =
                                {
                                  Types.ag_prefix = agg_prefix;
                                  ag_as_set = as_set;
                                  ag_summary_only = summary_only;
                                  ag_vrf = vrf;
                                }
                                :: !bgp.Types.bgp_aggregates }
                      | None -> bad ())
                  | _ -> bad ())
              | "import-route" :: proto :: rest -> (
                  match parse_proto proto with
                  | Some p ->
                      let policy =
                        match rest with
                        | [ "route-policy"; rp ] -> Some rp
                        | [] -> None
                        | _ -> None
                      in
                      bgp :=
                        { !bgp with
                          Types.bgp_redistribute =
                            (p, policy) :: !bgp.Types.bgp_redistribute }
                  | None -> bad ())
              | [ "peer"; ip; "as-number"; asn ] -> (
                  match L.int_opt asn with
                  | Some asn ->
                      ok
                        (update_peer ip (fun nb ->
                             { nb with Types.nb_remote_asn = asn }))
                  | None -> bad ())
              | [ "peer"; ip; "route-policy"; rp;
                  (("import" | "export") as dir) ] ->
                  ok
                    (update_peer ip (fun nb ->
                         if String.equal dir "import" then
                           { nb with Types.nb_import = Some rp }
                         else { nb with Types.nb_export = Some rp }))
              | [ "peer"; ip; "next-hop-local" ] ->
                  ok
                    (update_peer ip (fun nb ->
                         { nb with Types.nb_next_hop_self = true }))
              | [ "peer"; ip; "reflect-client" ] ->
                  ok
                    (update_peer ip (fun nb ->
                         { nb with Types.nb_rr_client = true }))
              | [ "peer"; ip; "additional-paths"; n ] -> (
                  match L.int_opt n with
                  | Some n ->
                      ok
                        (update_peer ip (fun nb ->
                             { nb with Types.nb_add_paths = n }))
                  | None -> bad ())
              | [ "peer"; ip; "vpn-instance"; v ] ->
                  ok (update_peer ip (fun nb -> { nb with Types.nb_vrf = v }))
              | _ -> bad ())
            body;
          st.cfg <- { st.cfg with Types.dc_bgp = !bgp })
  | _ -> err st header.L.lnum "bad bgp header"

let parse_isis st (_header : L.line) (body : L.line list) =
  let isis = ref { st.cfg.Types.dc_isis with Types.isis_enabled = true } in
  List.iter
    (fun (l : L.line) ->
      match l.L.tokens with
      | [ "network-entity"; n ] -> isis := { !isis with Types.isis_net = n }
      | [ "circuit-cost"; c ] -> (
          match L.int_opt c with
          | Some c when c >= 0 ->
              isis := { !isis with Types.isis_default_cost = Some c }
          | _ -> err st l.L.lnum "bad circuit-cost")
      | [ "traffic-eng" ] -> isis := { !isis with Types.isis_te = true }
      | [ "cost-style"; _ ] -> ()
      | _ -> err st l.L.lnum "unknown isis line: %s" l.L.raw)
    body;
  st.cfg <- { st.cfg with Types.dc_isis = !isis }

let parse_vpn_instance st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | [ "ip"; "vpn-instance"; name ] ->
      let vd =
        ref
          {
            Types.vd_name = name;
            vd_rd = "";
            vd_import_rts = [];
            vd_export_rts = [];
            vd_export_policy = None;
          }
      in
      List.iter
        (fun (l : L.line) ->
          match l.L.tokens with
          | [ "route-distinguisher"; rd ] -> vd := { !vd with Types.vd_rd = rd }
          | [ "vpn-target"; rt; "import-extcommunity" ] ->
              vd :=
                { !vd with Types.vd_import_rts = rt :: !vd.Types.vd_import_rts }
          | [ "vpn-target"; rt; "export-extcommunity" ] ->
              vd :=
                { !vd with Types.vd_export_rts = rt :: !vd.Types.vd_export_rts }
          | [ "export"; "route-policy"; rp ] ->
              vd := { !vd with Types.vd_export_policy = Some rp }
          | _ -> err st l.L.lnum "unknown vpn-instance line: %s" l.L.raw)
        body;
      st.cfg <-
        { st.cfg with
          Types.dc_bgp =
            { st.cfg.Types.dc_bgp with
              Types.bgp_vrfs = !vd :: st.cfg.Types.dc_bgp.Types.bgp_vrfs } }
  | _ -> err st header.L.lnum "bad vpn-instance header"

let parse_sr_policy st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | [ "sr-policy"; name; "endpoint"; ep; "color"; color ] -> (
      match (Ip.of_string ep, L.int_opt color) with
      | Some endpoint, Some color ->
          let pref = ref 100 and segments = ref [] in
          List.iter
            (fun (l : L.line) ->
              match l.L.tokens with
              | "segment-list" :: segs -> segments := segs
              | [ "preference"; p ] -> (
                  match L.int_opt p with
                  | Some p -> pref := p
                  | None -> err st l.L.lnum "bad preference")
              | _ -> err st l.L.lnum "unknown sr-policy line: %s" l.L.raw)
            body;
          st.cfg <-
            { st.cfg with
              Types.dc_sr_policies =
                {
                  Types.sp_name = name;
                  sp_endpoint = endpoint;
                  sp_color = color;
                  sp_segments = !segments;
                  sp_preference = !pref;
                }
                :: st.cfg.Types.dc_sr_policies }
      | _ -> err st header.L.lnum "bad sr-policy header")
  | _ -> err st header.L.lnum "bad sr-policy header"

let parse_acl st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | [ "acl"; "name"; name ] ->
      List.iter
        (fun (l : L.line) ->
          let bad () = err st l.L.lnum "unknown acl rule: %s" l.L.raw in
          match l.L.tokens with
          | "rule" :: seq :: action :: spec -> (
              match (L.int_opt seq, parse_action action) with
              | Some seq, Some action ->
                  let proto, spec =
                    match spec with
                    | "tcp" :: r -> (Some 6, r)
                    | "udp" :: r -> (Some 17, r)
                    | r -> (None, r)
                  in
                  let rec scan src dst dport = function
                    | [] -> Some (src, dst, dport)
                    | "source" :: p :: r -> (
                        match Prefix.of_string p with
                        | Some p -> scan (Some p) dst dport r
                        | None -> None)
                    | "destination" :: p :: r -> (
                        match Prefix.of_string p with
                        | Some p -> scan src (Some p) dport r
                        | None -> None)
                    | "destination-port" :: "eq" :: p :: r -> (
                        match L.int_opt p with
                        | Some p -> scan src dst (Some (p, p)) r
                        | None -> None)
                    | _ -> None
                  in
                  (match scan None None None spec with
                  | Some (src, dst, dport) ->
                      add_acl_entry st name
                        {
                          Types.ace_seq = seq;
                          ace_action = action;
                          ace_src = src;
                          ace_dst = dst;
                          ace_proto = proto;
                          ace_dport = dport;
                        }
                  | None -> bad ())
              | _ -> bad ())
          | _ -> bad ())
        body
  | _ -> err st header.L.lnum "bad acl header"

(* --- single-line top-level statements ----------------------------------- *)

let rec parse_ge_le ge le = function
  | [] -> Some (ge, le)
  | "greater-equal" :: n :: rest ->
      let* n = L.int_opt n in
      parse_ge_le (Some n) le rest
  | "less-equal" :: n :: rest ->
      let* n = L.int_opt n in
      parse_ge_le ge (Some n) rest
  | _ -> None

let parse_top_line st (l : L.line) =
  let bad () = err st l.L.lnum "unknown line: %s" l.L.raw in
  match l.L.tokens with
  | [ "sysname"; h ] -> st.cfg <- { st.cfg with Types.dc_device = h }
  | [ "isolate"; "enable" ] -> st.cfg <- { st.cfg with Types.dc_isolated = true }
  | "ip" :: (("ip-prefix" | "ipv6-prefix") as kind) :: name :: "index" :: seq
    :: action :: addr :: len :: rest -> (
      match
        (L.int_opt seq, parse_action action, Ip.of_string addr, L.int_opt len,
         parse_ge_le None None rest)
      with
      | Some seq, Some action, Some addr, Some len, Some (ge, le) ->
          let family =
            if String.equal kind "ip-prefix" then Ip.Ipv4 else Ip.Ipv6
          in
          (* A mismatched family (e.g. "ip ip-prefix" with an IPv6
             address) is the Figure-10(b) operator mistake: the vendor
             accepts the command but the entry can never match — the list
             exists with its *declared* family and no usable entry, and
             the "ip-prefix permits other family" VSB then lets every
             IPv6 route through the policy node. *)
          if Ip.family addr <> family then begin
            err st l.L.lnum
              "address family of %s does not match %s (entry ineffective)"
              (Ip.to_string addr) kind;
            (* declare the list so policy references resolve *)
            if Types.find_prefix_list st.cfg name = None then
              st.cfg <-
                { st.cfg with
                  Types.dc_prefix_lists =
                    Types.Smap.add name
                      { Types.pl_name = name; pl_family = family;
                        pl_entries = [] }
                      st.cfg.Types.dc_prefix_lists }
          end
          else (
            match Prefix.make_opt addr len with
            | Some pe_prefix ->
                add_prefix_list st name family
                  { Types.pe_seq = seq; pe_action = action; pe_prefix;
                    pe_ge = ge; pe_le = le }
            | None -> bad ())
      | _ -> bad ())
  | "ip" :: "community-filter" :: name :: "index" :: seq :: action :: comms
    -> (
      match (L.int_opt seq, parse_action action, parse_communities comms) with
      | Some seq, Some action, Some members ->
          add_community_list st name
            { Types.ce_seq = seq; ce_action = action; ce_members = members }
      | _ -> bad ())
  | "ip" :: "as-path-filter" :: name :: "index" :: seq :: action :: re -> (
      match (L.int_opt seq, parse_action action) with
      | Some seq, Some action ->
          add_aspath_filter st name
            { Types.ae_seq = seq; ae_action = action;
              ae_regex = String.concat " " re }
      | _ -> bad ())
  | "ip" :: "route-static" :: rest -> (
      let vrf, rest =
        match rest with
        | "vpn-instance" :: v :: r -> (v, r)
        | r -> (Route.default_vrf, r)
      in
      match rest with
      | addr :: len :: target :: opts -> (
          match (Ip.of_string addr, L.int_opt len) with
          | Some addr, Some len ->
              let nexthop = Ip.of_string target in
              let iface = if nexthop = None then Some target else None in
              let rec scan pref tag = function
                | [] -> Some (pref, tag)
                | "preference" :: n :: r -> (
                    match L.int_opt n with Some n -> scan n tag r | None -> None)
                | "tag" :: n :: r -> (
                    match L.int_opt n with Some n -> scan pref n r | None -> None)
                | _ -> None
              in
              (match (scan 60 0 opts, Prefix.make_opt addr len) with
              | Some (pref, tag), Some st_prefix ->
                  st.cfg <-
                    { st.cfg with
                      Types.dc_statics =
                        {
                          Types.st_prefix;
                          st_nexthop = nexthop;
                          st_iface = iface;
                          st_preference = pref;
                          st_tag = tag;
                          st_vrf = vrf;
                        }
                        :: st.cfg.Types.dc_statics }
              | _ -> bad ())
          | _ -> bad ())
      | _ -> bad ())
  | [ "traffic-policy"; "interface"; ifname; "acl"; acl; "redirect";
      "next-hop"; nh ] -> (
      match Ip.of_string nh with
      | Some nh ->
          st.cfg <-
            { st.cfg with
              Types.dc_pbr =
                { Types.pbr_iface = ifname; pbr_acl = acl; pbr_nexthop = nh }
                :: st.cfg.Types.dc_pbr }
      | None -> bad ())
  | _ -> bad ()

(* --- entry point -------------------------------------------------------- *)

(** Parse a full vendor-B configuration. *)
let parse ?(device = "unknown") (text : string) : Types.t * L.error list =
  let st = { cfg = Types.empty ~device ~vendor:"vendorB"; errors = [] } in
  let lines = L.lines_of_string ~comment:'#' text in
  List.iter
    (fun (header, body) ->
      match header.L.tokens with
      | "interface" :: _ -> parse_interface st header body
      | "route-policy" :: _ -> parse_route_policy st header body
      | [ "bgp"; _ ] -> parse_bgp st header body
      | [ "isis"; _ ] -> parse_isis st header body
      | [ "ip"; "vpn-instance"; _ ] -> parse_vpn_instance st header body
      | "sr-policy" :: _ -> parse_sr_policy st header body
      | [ "acl"; "name"; _ ] -> parse_acl st header body
      | _ ->
          if body = [] then parse_top_line st header
          else err st header.L.lnum "unknown stanza: %s" header.L.raw)
    (L.stanzas lines);
  (st.cfg, List.rev st.errors)
