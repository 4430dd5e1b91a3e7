(** Configuration parser for vendor A (an IOS-like dialect).

    The dialect is line-oriented with indented stanza bodies:

    {v
    hostname CORE-1
    interface Eth0
     ip address 10.0.0.1/31
     isis cost 10
    ip prefix-list PL seq 5 permit 10.0.0.0/24 le 32
    route-map RM permit 10
     match ip prefix-list PL
     set local-preference 300
    router bgp 65001
     neighbor 10.0.0.2 remote-as 65002
     neighbor 10.0.0.2 route-map RM in
    v}

    [parse] returns the model plus a list of parse errors (unknown or
    malformed lines are skipped and reported, mirroring the paper's
    "parsing may be flawed / incomplete" accuracy-issue class).  The
    [flaws] argument deliberately re-introduces historical parser bugs for
    the diagnosis experiments (Table 4, "input pre-processing"). *)

open Hoyan_net
module L = Lexutil

type flaw =
  | Ignore_additive
      (** "set community ... additive" mis-parsed as a plain replace. *)
  | Drop_ipv6_prefix_lists
      (** ipv6 prefix-lists skipped (historical incomplete implementation);
          the drop is reported as a parse error, never silent. *)

let ( let* ) = Option.bind

let parse_action = function
  | "permit" -> Some Types.Permit
  | "deny" -> Some Types.Deny
  | _ -> None

let parse_proto = function
  | "bgp" -> Some Route.Bgp
  | "isis" -> Some Route.Isis
  | "static" -> Some Route.Static
  | "direct" | "connected" -> Some Route.Direct
  | _ -> None

(* Parse trailing [ge N] [le N] options of a prefix-list entry. *)
let rec parse_ge_le ge le = function
  | [] -> Some (ge, le)
  | "ge" :: n :: rest ->
      let* n = L.int_opt n in
      parse_ge_le (Some n) le rest
  | "le" :: n :: rest ->
      let* n = L.int_opt n in
      parse_ge_le ge (Some n) rest
  | _ -> None

type state = {
  mutable cfg : Types.t;
  mutable errors : L.error list;
  flaws : flaw list;
}

let err st lnum fmt =
  Printf.ksprintf
    (fun msg -> st.errors <- { L.err_line = lnum; err_msg = msg } :: st.errors)
    fmt

let has_flaw st f = List.mem f st.flaws

(* --- accumulation helpers -------------------------------------------- *)

let sort_by f l = List.sort (fun a b -> Int.compare (f a) (f b)) l

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
    node :: List.filter (fun n -> n.Types.pn_seq <> node.Types.pn_seq) rp.Types.rp_nodes
  in
  let rp = { rp with Types.rp_nodes = sort_by (fun n -> n.Types.pn_seq) nodes } in
  st.cfg <-
    { cfg with Types.dc_policies = Types.Smap.add name rp cfg.Types.dc_policies }

(* --- clause parsers ---------------------------------------------------- *)

let parse_match_clause tokens : Types.match_clause option =
  match tokens with
  | [ "ip"; "prefix-list"; name ] | [ "ipv6"; "prefix-list"; name ] ->
      Some (Types.Match_prefix_list name)
  | [ "community"; name ] -> Some (Types.Match_community_list name)
  | [ "as-path"; name ] -> Some (Types.Match_aspath_filter name)
  | [ "ip"; "next-hop"; p ] | [ "ipv6"; "next-hop"; p ] ->
      let* p = Prefix.of_string p in
      Some (Types.Match_nexthop p)
  | [ "tag"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Match_tag n)
  | [ "protocol"; p ] ->
      let* p = parse_proto p in
      Some (Types.Match_protocol p)
  | [ "family"; "ipv4" ] -> Some (Types.Match_family Ip.Ipv4)
  | [ "family"; "ipv6" ] -> Some (Types.Match_family Ip.Ipv6)
  | _ -> None

let parse_communities toks =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest ->
        let* c = Community.of_string c in
        go (c :: acc) rest
  in
  go [] toks

let parse_set_clause st tokens : Types.set_clause option =
  match tokens with
  | [ "local-preference"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_local_pref n)
  | [ "metric"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_med n)
  | [ "weight"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_weight n)
  | [ "preference"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_preference n)
  | [ "tag"; n ] ->
      let* n = L.int_opt n in
      Some (Types.Set_tag n)
  | [ "ip"; "next-hop"; ip ] | [ "ipv6"; "next-hop"; ip ] ->
      let* ip = Ip.of_string ip in
      Some (Types.Set_nexthop ip)
  | "as-path" :: "prepend" :: asn :: rest ->
      let* asn = L.int_opt asn in
      let count =
        match rest with
        | [ c ] -> Option.value (L.int_opt c) ~default:1
        | _ -> 1
      in
      Some (Types.Set_aspath_prepend (asn, count))
  | "as-path" :: "overwrite" :: asns ->
      let* asns =
        List.fold_left
          (fun acc a ->
            let* acc = acc in
            let* a = L.int_opt a in
            Some (a :: acc))
          (Some []) asns
      in
      Some (Types.Set_aspath_overwrite (List.rev asns))
  | "community" :: "delete" :: comms ->
      let* cs = parse_communities comms in
      Some (Types.Set_communities (Types.Comm_remove, cs))
  | "community" :: rest ->
      let additive, comms =
        match List.rev rest with
        | "additive" :: r -> (true, List.rev r)
        | _ -> (false, rest)
      in
      let* cs = parse_communities comms in
      let additive = if has_flaw st Ignore_additive then false else additive in
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
      | [ "ip"; "address"; p ] | [ "ipv6"; "address"; p ] -> (
          match String.index_opt p '/' with
          | Some i -> (
              let addr = Ip.of_string (String.sub p 0 i) in
              let len =
                L.int_opt (String.sub p (i + 1) (String.length p - i - 1))
              in
              match (addr, len) with
              | Some a, Some l when l >= 0 && l <= Ip.family_bits (Ip.family a)
                ->
                  iface := { !iface with Types.if_addr = Some a; if_plen = l }
              | _ -> err st l.L.lnum "bad interface address %s" p)
          | None -> err st l.L.lnum "bad interface address %s" p)
      | [ "bandwidth"; b ] -> (
          match L.float_opt b with
          | Some b -> iface := { !iface with Types.if_bandwidth = b }
          | None -> err st l.L.lnum "bad bandwidth")
      | [ "ip"; "access-group"; acl; "in" ] ->
          iface := { !iface with Types.if_acl_in = Some acl }
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

let parse_route_map st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | "route-map" :: name :: rest -> (
      let action, seq =
        match rest with
        | [ a; s ] -> (
            match parse_action a with
            | Some act -> (Some act, L.int_opt s)
            | None -> (None, None))
        | [ s ] ->
            (* node without explicit permit/deny: VSB territory *)
            (None, L.int_opt s)
        | _ -> (None, None)
      in
      match seq with
      | None -> err st header.L.lnum "bad route-map header: %s" header.L.raw
      | Some seq ->
          let matches = ref [] and sets = ref [] and goto_next = ref false in
          List.iter
            (fun (l : L.line) ->
              match l.L.tokens with
              | "match" :: rest -> (
                  match parse_match_clause rest with
                  | Some m -> matches := m :: !matches
                  | None -> err st l.L.lnum "unknown match: %s" l.L.raw)
              | "set" :: rest -> (
                  match parse_set_clause st rest with
                  | Some s -> sets := s :: !sets
                  | None -> err st l.L.lnum "unknown set: %s" l.L.raw)
              | [ "continue" ] -> goto_next := true
              | _ -> err st l.L.lnum "unknown route-map line: %s" l.L.raw)
            body;
          add_policy_node st name
            {
              Types.pn_seq = seq;
              pn_action = action;
              pn_matches = List.rev !matches;
              pn_sets = List.rev !sets;
              pn_goto_next = !goto_next;
            })
  | _ -> err st header.L.lnum "bad route-map header"

let parse_router_bgp st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | [ "router"; "bgp"; asn ] -> (
      match L.int_opt asn with
      | None -> err st header.L.lnum "bad BGP ASN"
      | Some asn ->
          let bgp = ref { st.cfg.Types.dc_bgp with Types.bgp_asn = asn } in
          let find_neighbor ip =
            List.find_opt
              (fun n -> Ip.equal n.Types.nb_addr ip)
              !bgp.Types.bgp_neighbors
          in
          let update_neighbor ip f =
            match Ip.of_string ip with
            | None -> None
            | Some addr ->
                let nb =
                  match find_neighbor addr with
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
              match l.L.tokens with
              | [ "bgp"; "router-id"; ip ] -> (
                  match Ip.of_string ip with
                  | Some ip -> bgp := { !bgp with Types.bgp_router_id = Some ip }
                  | None -> bad ())
              | [ "network"; p ] | [ "network"; p; "vrf"; _ ] -> (
                  let vrf =
                    match l.L.tokens with
                    | [ _; _; "vrf"; v ] -> v
                    | _ -> Route.default_vrf
                  in
                  match Prefix.of_string p with
                  | Some p ->
                      bgp :=
                        { !bgp with
                          Types.bgp_networks = (p, vrf) :: !bgp.Types.bgp_networks }
                  | None -> bad ())
              | "aggregate-address" :: p :: opts -> (
                  match Prefix.of_string p with
                  | Some p ->
                      let rec scan as_set summary vrf = function
                        | [] -> Some (as_set, summary, vrf)
                        | "as-set" :: r -> scan true summary vrf r
                        | "summary-only" :: r -> scan as_set true vrf r
                        | "vrf" :: v :: r -> scan as_set summary v r
                        | _ -> None
                      in
                      (match scan false false Route.default_vrf opts with
                      | Some (as_set, summary_only, vrf) ->
                          bgp :=
                            { !bgp with
                              Types.bgp_aggregates =
                                {
                                  Types.ag_prefix = p;
                                  ag_as_set = as_set;
                                  ag_summary_only = summary_only;
                                  ag_vrf = vrf;
                                }
                                :: !bgp.Types.bgp_aggregates }
                      | None -> bad ())
                  | None -> bad ())
              | "redistribute" :: proto :: rest -> (
                  match parse_proto proto with
                  | Some p ->
                      let policy =
                        match rest with
                        | [ "route-map"; rm ] -> Some rm
                        | [] -> None
                        | _ -> None
                      in
                      bgp :=
                        { !bgp with
                          Types.bgp_redistribute =
                            (p, policy) :: !bgp.Types.bgp_redistribute }
                  | None -> bad ())
              | [ "neighbor"; ip; "remote-as"; asn ] -> (
                  match L.int_opt asn with
                  | Some asn -> (
                      match
                        update_neighbor ip (fun nb ->
                            { nb with Types.nb_remote_asn = asn })
                      with
                      | Some () -> ()
                      | None -> bad ())
                  | None -> bad ())
              | [ "neighbor"; ip; "route-map"; rm; (("in" | "out") as dir) ]
                -> (
                  match
                    update_neighbor ip (fun nb ->
                        if String.equal dir "in" then
                          { nb with Types.nb_import = Some rm }
                        else { nb with Types.nb_export = Some rm })
                  with
                  | Some () -> ()
                  | None -> bad ())
              | [ "neighbor"; ip; "next-hop-self" ] -> (
                  match
                    update_neighbor ip (fun nb ->
                        { nb with Types.nb_next_hop_self = true })
                  with
                  | Some () -> ()
                  | None -> bad ())
              | [ "neighbor"; ip; "route-reflector-client" ] -> (
                  match
                    update_neighbor ip (fun nb ->
                        { nb with Types.nb_rr_client = true })
                  with
                  | Some () -> ()
                  | None -> bad ())
              | [ "neighbor"; ip; "additional-paths"; n ] -> (
                  match L.int_opt n with
                  | Some n -> (
                      match
                        update_neighbor ip (fun nb ->
                            { nb with Types.nb_add_paths = n })
                      with
                      | Some () -> ()
                      | None -> bad ())
                  | None -> bad ())
              | [ "neighbor"; ip; "vrf"; v ] -> (
                  match
                    update_neighbor ip (fun nb -> { nb with Types.nb_vrf = v })
                  with
                  | Some () -> ()
                  | None -> bad ())
              | _ -> bad ())
            body;
          st.cfg <- { st.cfg with Types.dc_bgp = !bgp })
  | _ -> err st header.L.lnum "bad router bgp header"

let parse_router_isis st (_header : L.line) (body : L.line list) =
  let isis = ref { st.cfg.Types.dc_isis with Types.isis_enabled = true } in
  List.iter
    (fun (l : L.line) ->
      match l.L.tokens with
      | [ "net"; n ] -> isis := { !isis with Types.isis_net = n }
      | [ "default-cost"; c ] -> (
          match L.int_opt c with
          | Some c when c >= 0 ->
              isis := { !isis with Types.isis_default_cost = Some c }
          | _ -> err st l.L.lnum "bad default-cost")
      | [ "traffic-eng" ] | [ "traffic-eng"; _ ] ->
          isis := { !isis with Types.isis_te = true }
      | [ "metric-style"; _ ] -> ()
      | _ -> err st l.L.lnum "unknown isis line: %s" l.L.raw)
    body;
  st.cfg <- { st.cfg with Types.dc_isis = !isis }

let parse_vrf_definition st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | [ "vrf"; "definition"; name ] ->
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
          | [ "rd"; rd ] -> vd := { !vd with Types.vd_rd = rd }
          | [ "route-target"; "import"; rt ] ->
              vd := { !vd with Types.vd_import_rts = rt :: !vd.Types.vd_import_rts }
          | [ "route-target"; "export"; rt ] ->
              vd := { !vd with Types.vd_export_rts = rt :: !vd.Types.vd_export_rts }
          | [ "export"; "map"; rm ] ->
              vd := { !vd with Types.vd_export_policy = Some rm }
          | _ -> err st l.L.lnum "unknown vrf line: %s" l.L.raw)
        body;
      st.cfg <-
        { st.cfg with
          Types.dc_bgp =
            { st.cfg.Types.dc_bgp with
              Types.bgp_vrfs = !vd :: st.cfg.Types.dc_bgp.Types.bgp_vrfs } }
  | _ -> err st header.L.lnum "bad vrf definition"

let parse_sr_policy st (header : L.line) (body : L.line list) =
  match header.L.tokens with
  | [ "segment-routing"; "policy"; name; "color"; color; "end-point"; ep ] -> (
      match (L.int_opt color, Ip.of_string ep) with
      | Some color, Some endpoint ->
          let pref = ref 100 and segments = ref [] in
          List.iter
            (fun (l : L.line) ->
              match l.L.tokens with
              | "candidate-path" :: "preference" :: p :: rest -> (
                  (match L.int_opt p with
                  | Some p -> pref := p
                  | None -> err st l.L.lnum "bad preference");
                  match rest with
                  | "explicit" :: "segment-list" :: segs -> segments := segs
                  | [] -> ()
                  | _ -> err st l.L.lnum "bad candidate-path")
              | _ -> err st l.L.lnum "unknown sr line: %s" l.L.raw)
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
      | _ -> err st header.L.lnum "bad segment-routing header")
  | _ -> err st header.L.lnum "bad segment-routing header"

(* --- single-line top-level statements ---------------------------------- *)

let parse_top_line st (l : L.line) =
  let bad () = err st l.L.lnum "unknown line: %s" l.L.raw in
  match l.L.tokens with
  | [ "hostname"; h ] -> st.cfg <- { st.cfg with Types.dc_device = h }
  | [ "isolate" ] -> st.cfg <- { st.cfg with Types.dc_isolated = true }
  | "ip" :: "prefix-list" :: name :: "seq" :: seq :: action :: prefix :: rest
    -> (
      match
        (L.int_opt seq, parse_action action, Prefix.of_string prefix,
         parse_ge_le None None rest)
      with
      | Some seq, Some action, Some prefix, Some (ge, le) ->
          add_prefix_list st name Ip.Ipv4
            { Types.pe_seq = seq; pe_action = action; pe_prefix = prefix;
              pe_ge = ge; pe_le = le }
      | _ -> bad ())
  | "ipv6" :: "prefix-list" :: name :: "seq" :: seq :: action :: prefix :: rest
    -> (
      if has_flaw st Drop_ipv6_prefix_lists then
        (* the historical bug dropped the entry; it must at least not be
           silent about it *)
        err st l.L.lnum "ipv6 prefix-list %s not supported (dropped)" name
      else
        match
          (L.int_opt seq, parse_action action, Prefix.of_string prefix,
           parse_ge_le None None rest)
        with
        | Some seq, Some action, Some prefix, Some (ge, le) ->
            add_prefix_list st name Ip.Ipv6
              { Types.pe_seq = seq; pe_action = action; pe_prefix = prefix;
                pe_ge = ge; pe_le = le }
        | _ -> bad ())
  | "ip" :: "community-list" :: name :: "seq" :: seq :: action :: comms -> (
      match (L.int_opt seq, parse_action action, parse_communities comms) with
      | Some seq, Some action, Some members ->
          add_community_list st name
            { Types.ce_seq = seq; ce_action = action; ce_members = members }
      | _ -> bad ())
  | "ip" :: "as-path" :: "access-list" :: name :: "seq" :: seq :: action :: re
    -> (
      match (L.int_opt seq, parse_action action) with
      | Some seq, Some action ->
          add_aspath_filter st name
            { Types.ae_seq = seq; ae_action = action;
              ae_regex = String.concat " " re }
      | _ -> bad ())
  | "ip" :: "route" :: rest -> (
      let vrf, rest =
        match rest with
        | "vrf" :: v :: r -> (v, r)
        | r -> (Route.default_vrf, r)
      in
      match rest with
      | prefix :: target :: opts -> (
          match Prefix.of_string prefix with
          | Some p ->
              let nexthop = Ip.of_string target in
              let iface = if nexthop = None then Some target else None in
              let rec scan pref tag = function
                | [] -> Some (pref, tag)
                | "preference" :: n :: r -> (
                    match L.int_opt n with
                    | Some n -> scan n tag r
                    | None -> None)
                | "tag" :: n :: r -> (
                    match L.int_opt n with
                    | Some n -> scan pref n r
                    | None -> None)
                | _ -> None
              in
              (match scan 1 0 opts with
              | Some (pref, tag) ->
                  st.cfg <-
                    { st.cfg with
                      Types.dc_statics =
                        {
                          Types.st_prefix = p;
                          st_nexthop = nexthop;
                          st_iface = iface;
                          st_preference = pref;
                          st_tag = tag;
                          st_vrf = vrf;
                        }
                        :: st.cfg.Types.dc_statics }
              | None -> bad ())
          | None -> bad ())
      | _ -> bad ())
  | "access-list" :: name :: "seq" :: seq :: action :: spec -> (
      match (L.int_opt seq, parse_action action) with
      | Some seq, Some action -> (
          (* spec: (PROTO|any) (SRC|any) (DST|any) [eq PORT | range LO HI] *)
          let proto, spec =
            match spec with
            | "any" :: r -> (None, r)
            | "tcp" :: r -> (Some 6, r)
            | "udp" :: r -> (Some 17, r)
            | p :: r when L.int_opt p <> None -> (L.int_opt p, r)
            | r -> (None, r)
          in
          let pfx tok =
            if tok = "any" then Some None
            else
              match Prefix.of_string tok with
              | Some p -> Some (Some p)
              | None -> None
          in
          match spec with
          | src :: dst :: port_spec -> (
              match (pfx src, pfx dst) with
              | Some src, Some dst -> (
                  let dport =
                    match port_spec with
                    | [] -> Some None
                    | [ "eq"; p ] ->
                        Option.map (fun p -> Some (p, p)) (L.int_opt p)
                    | [ "range"; lo; hi ] -> (
                        match (L.int_opt lo, L.int_opt hi) with
                        | Some lo, Some hi -> Some (Some (lo, hi))
                        | _ -> None)
                    | _ -> None
                  in
                  match dport with
                  | Some dport ->
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
          | [] -> (
              (* bare "permit any"-style catch-all *)
              add_acl_entry st name
                {
                  Types.ace_seq = seq;
                  ace_action = action;
                  ace_src = None;
                  ace_dst = None;
                  ace_proto = proto;
                  ace_dport = None;
                })
          | _ -> bad ())
      | _ -> bad ())
  | [ "pbr"; "interface"; ifname; "acl"; acl; "next-hop"; nh ] -> (
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

(** Parse a full vendor-A configuration.  [device] seeds the device name
    (overridden by a [hostname] line). *)
let parse ?(flaws = []) ?(device = "unknown") (text : string) :
    Types.t * L.error list =
  let st = { cfg = Types.empty ~device ~vendor:"vendorA"; errors = []; flaws } in
  let lines = L.lines_of_string ~comment:'!' text in
  List.iter
    (fun (header, body) ->
      match header.L.tokens with
      | "interface" :: _ -> parse_interface st header body
      | "route-map" :: _ -> parse_route_map st header body
      | [ "router"; "bgp"; _ ] -> parse_router_bgp st header body
      | [ "router"; "isis" ] -> parse_router_isis st header body
      | "vrf" :: "definition" :: _ -> parse_vrf_definition st header body
      | "segment-routing" :: _ -> parse_sr_policy st header body
      | _ ->
          if body = [] then parse_top_line st header
          else err st header.L.lnum "unknown stanza: %s" header.L.raw)
    (L.stanzas lines);
  (st.cfg, List.rev st.errors)
