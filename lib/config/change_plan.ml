(** Change plans: the input of a change-verification request (§2.2).

    A change plan consists of planned topology changes plus, per target
    device, a block of configuration commands written in {e that device's
    vendor dialect} ("typically a few hundred to a few thousand lines of
    commands").  Hoyan parses the commands and applies them incrementally
    to the pre-computed base network model.

    Command blocks mix two kinds of lines:
    - ordinary configuration stanzas (added/merged into the device config);
    - deletion commands ([no ...] for vendor A, [undo ...] for vendor B).

    Applying a block to a device of the {e wrong} vendor yields parse
    errors and an (almost) unchanged config — which is exactly the
    "wrong command format used for a different vendor" risk class of
    Table 6 that Hoyan catches as an intent violation downstream. *)

open Hoyan_net
module L = Lexutil

type topo_op =
  | Add_device of Topology.device
  | Remove_device of string
  | Add_link of {
      la : string;
      la_if : string;
      lb : string;
      lb_if : string;
      l_bandwidth : float;
    }
  | Remove_link of { ra : string; rb : string }

type t = {
  cp_name : string;
  cp_topo_ops : topo_op list;
  cp_commands : (string * string) list; (* device name, command block *)
  cp_new_routes : Route.t list; (* e.g. a new prefix announcement *)
  cp_withdraw : Prefix.t list; (* prefix reclamation: inputs to remove *)
}

let make ?(topo_ops = []) ?(commands = []) ?(new_routes = [])
    ?(withdraw = []) name =
  {
    cp_name = name;
    cp_topo_ops = topo_ops;
    cp_commands = commands;
    cp_new_routes = new_routes;
    cp_withdraw = withdraw;
  }

let command_line_count t =
  List.fold_left
    (fun n (_, block) ->
      n
      + (String.split_on_char '\n' block
        |> List.filter (fun l -> String.trim l <> "")
        |> List.length))
    0 t.cp_commands

(* ------------------------------------------------------------------ *)
(* Config merging                                                      *)
(* ------------------------------------------------------------------ *)

let merge_sorted_by key xs ys =
  (* ys (the delta) override xs entries with equal keys *)
  let keep x = not (List.exists (fun y -> key y = key x) ys) in
  List.sort (fun a b -> Int.compare (key a) (key b)) (List.filter keep xs @ ys)

let merge_prefix_lists base delta =
  Types.Smap.union
    (fun _ (b : Types.prefix_list) (d : Types.prefix_list) ->
      Some
        { d with
          Types.pl_entries =
            merge_sorted_by
              (fun e -> e.Types.pe_seq)
              b.Types.pl_entries d.Types.pl_entries })
    base delta

let merge_community_lists base delta =
  Types.Smap.union
    (fun _ (b : Types.community_list) (d : Types.community_list) ->
      Some
        { d with
          Types.cl_entries =
            merge_sorted_by
              (fun e -> e.Types.ce_seq)
              b.Types.cl_entries d.Types.cl_entries })
    base delta

let merge_aspath_filters base delta =
  Types.Smap.union
    (fun _ (b : Types.aspath_filter) (d : Types.aspath_filter) ->
      Some
        { d with
          Types.af_entries =
            merge_sorted_by
              (fun e -> e.Types.ae_seq)
              b.Types.af_entries d.Types.af_entries })
    base delta

let merge_policies base delta =
  Types.Smap.union
    (fun _ (b : Types.route_policy) (d : Types.route_policy) ->
      Some
        { d with
          Types.rp_nodes =
            merge_sorted_by
              (fun n -> n.Types.pn_seq)
              b.Types.rp_nodes d.Types.rp_nodes })
    base delta

let merge_acls base delta =
  Types.Smap.union
    (fun _ (b : Types.acl) (d : Types.acl) ->
      Some
        { d with
          Types.acl_entries =
            merge_sorted_by
              (fun e -> e.Types.ace_seq)
              b.Types.acl_entries d.Types.acl_entries })
    base delta

(* Neighbor commands are attribute-wise: "peer X route-policy P export"
   only touches the export policy, it does not reset the session's other
   attributes.  Overlay the delta's non-default fields onto the base. *)
let overlay_neighbor (b : Types.neighbor) (d : Types.neighbor) :
    Types.neighbor =
  {
    Types.nb_addr = b.Types.nb_addr;
    nb_remote_asn =
      (if d.Types.nb_remote_asn <> 0 then d.Types.nb_remote_asn
       else b.Types.nb_remote_asn);
    nb_import =
      (match d.Types.nb_import with Some _ as p -> p | None -> b.Types.nb_import);
    nb_export =
      (match d.Types.nb_export with Some _ as p -> p | None -> b.Types.nb_export);
    nb_rr_client = b.Types.nb_rr_client || d.Types.nb_rr_client;
    nb_next_hop_self = b.Types.nb_next_hop_self || d.Types.nb_next_hop_self;
    nb_add_paths =
      (if d.Types.nb_add_paths > 0 then d.Types.nb_add_paths
       else b.Types.nb_add_paths);
    nb_vrf =
      (if String.equal d.Types.nb_vrf Route.default_vrf then b.Types.nb_vrf
       else d.Types.nb_vrf);
  }

let merge_neighbors base delta =
  let merged_base =
    List.map
      (fun (n : Types.neighbor) ->
        match
          List.find_opt
            (fun (d : Types.neighbor) -> Ip.equal d.Types.nb_addr n.Types.nb_addr)
            delta
        with
        | Some d -> overlay_neighbor n d
        | None -> n)
      base
  in
  let new_neighbors =
    List.filter
      (fun (d : Types.neighbor) ->
        not
          (List.exists
             (fun (n : Types.neighbor) ->
               Ip.equal n.Types.nb_addr d.Types.nb_addr)
             base))
      delta
  in
  merged_base @ new_neighbors

let merge_bgp (base : Types.bgp_config) (delta : Types.bgp_config) =
  let or_default d b = if d = 0 then b else d in
  {
    Types.bgp_asn = or_default delta.Types.bgp_asn base.Types.bgp_asn;
    bgp_router_id =
      (match delta.Types.bgp_router_id with
      | Some _ as r -> r
      | None -> base.Types.bgp_router_id);
    bgp_neighbors = merge_neighbors base.Types.bgp_neighbors delta.Types.bgp_neighbors;
    bgp_networks =
      List.sort_uniq Stdlib.compare
        (base.Types.bgp_networks @ delta.Types.bgp_networks);
    bgp_aggregates =
      List.filter
        (fun (a : Types.aggregate) ->
          not
            (List.exists
               (fun (d : Types.aggregate) ->
                 Prefix.equal d.Types.ag_prefix a.Types.ag_prefix
                 && String.equal d.Types.ag_vrf a.Types.ag_vrf)
               delta.Types.bgp_aggregates))
        base.Types.bgp_aggregates
      @ delta.Types.bgp_aggregates;
    bgp_redistribute =
      List.sort_uniq Stdlib.compare
        (base.Types.bgp_redistribute @ delta.Types.bgp_redistribute);
    bgp_vrfs =
      List.filter
        (fun (v : Types.vrf_def) ->
          not
            (List.exists
               (fun (d : Types.vrf_def) ->
                 String.equal d.Types.vd_name v.Types.vd_name)
               delta.Types.bgp_vrfs))
        base.Types.bgp_vrfs
      @ delta.Types.bgp_vrfs;
  }

let merge_isis (base : Types.isis_config) (delta : Types.isis_config) =
  if not delta.Types.isis_enabled then base
  else
    {
      Types.isis_enabled = true;
      isis_net =
        (if delta.Types.isis_net <> "" then delta.Types.isis_net
         else base.Types.isis_net);
      isis_te = base.Types.isis_te || delta.Types.isis_te;
      isis_default_cost =
        (match delta.Types.isis_default_cost with
        | Some _ as c -> c
        | None -> base.Types.isis_default_cost);
      isis_ifaces =
        List.filter
          (fun (i : Types.isis_iface) ->
            not
              (List.exists
                 (fun (d : Types.isis_iface) ->
                   String.equal d.Types.ii_name i.Types.ii_name)
                 delta.Types.isis_ifaces))
          base.Types.isis_ifaces
        @ delta.Types.isis_ifaces;
    }

(* Interface stanzas are field-wise too: "interface Eth0 / isis cost 5"
   sets the IS-IS cost (merged by [merge_isis]) and nothing else, so it
   must not reset the interface's address, bandwidth or ACL.  The
   parsers start every interface at [if_addr = None], [if_acl_in = None]
   and [Types.default_bandwidth]; a delta field still at that start
   value is unset and keeps the base's (the address and its mask length
   go together). *)
let overlay_iface (b : Types.iface_config) (d : Types.iface_config) :
    Types.iface_config =
  let if_addr, if_plen =
    match d.Types.if_addr with
    | Some _ -> (d.Types.if_addr, d.Types.if_plen)
    | None -> (b.Types.if_addr, b.Types.if_plen)
  in
  {
    Types.if_name = b.Types.if_name;
    if_addr;
    if_plen;
    if_bandwidth =
      (if d.Types.if_bandwidth = Types.default_bandwidth then
         b.Types.if_bandwidth
       else d.Types.if_bandwidth);
    if_acl_in =
      (match d.Types.if_acl_in with Some _ as a -> a | None -> b.Types.if_acl_in);
  }

(** Merge a parsed command delta into a base device config.  Stanzas
    are overlaid field by field where a block may restate one attribute
    of an existing object (interfaces, BGP neighbors, the IS-IS process):
    a delta field left at the parsers' start value is unset.  The
    interface bandwidth is a plain float whose start value
    ([Types.default_bandwidth], 10e9) is also a bandwidth a block may
    state.  The field stays a float rather than becoming an option, and
    a delta bandwidth equal to the start value reads as unset: a block
    cannot lower or raise an interface's bandwidth to exactly 10e9 (it
    keeps the base's).  No generated or example plan states that value
    over another one. *)
let merge (base : Types.t) (delta : Types.t) : Types.t =
  let find_base (d : Types.iface_config) =
    List.find_opt
      (fun (i : Types.iface_config) ->
        String.equal i.Types.if_name d.Types.if_name)
      base.Types.dc_ifaces
  in
  {
    base with
    Types.dc_ifaces =
      List.filter
        (fun (i : Types.iface_config) ->
          not
            (List.exists
               (fun (d : Types.iface_config) ->
                 String.equal d.Types.if_name i.Types.if_name)
               delta.Types.dc_ifaces))
        base.Types.dc_ifaces
      @ List.map
          (fun d ->
            match find_base d with Some b -> overlay_iface b d | None -> d)
          delta.Types.dc_ifaces;
    dc_prefix_lists =
      merge_prefix_lists base.Types.dc_prefix_lists delta.Types.dc_prefix_lists;
    dc_community_lists =
      merge_community_lists base.Types.dc_community_lists
        delta.Types.dc_community_lists;
    dc_aspath_filters =
      merge_aspath_filters base.Types.dc_aspath_filters
        delta.Types.dc_aspath_filters;
    dc_policies = merge_policies base.Types.dc_policies delta.Types.dc_policies;
    dc_bgp = merge_bgp base.Types.dc_bgp delta.Types.dc_bgp;
    dc_isis = merge_isis base.Types.dc_isis delta.Types.dc_isis;
    dc_statics =
      List.sort_uniq Stdlib.compare
        (base.Types.dc_statics @ delta.Types.dc_statics);
    dc_sr_policies =
      List.filter
        (fun (s : Types.sr_policy) ->
          not
            (List.exists
               (fun (d : Types.sr_policy) ->
                 String.equal d.Types.sp_name s.Types.sp_name)
               delta.Types.dc_sr_policies))
        base.Types.dc_sr_policies
      @ delta.Types.dc_sr_policies;
    dc_acls = merge_acls base.Types.dc_acls delta.Types.dc_acls;
    dc_pbr = List.sort_uniq Stdlib.compare (base.Types.dc_pbr @ delta.Types.dc_pbr);
    dc_isolated = base.Types.dc_isolated || delta.Types.dc_isolated;
  }

(* ------------------------------------------------------------------ *)
(* Deletion commands                                                   *)
(* ------------------------------------------------------------------ *)

type del_error = { del_line : string; del_msg : string }

let update_policy_nodes cfg name f =
  match Types.find_policy cfg name with
  | None -> None
  | Some rp ->
      let nodes = f rp.Types.rp_nodes in
      let policies =
        if nodes = [] then Types.Smap.remove name cfg.Types.dc_policies
        else
          Types.Smap.add name
            { rp with Types.rp_nodes = nodes }
            cfg.Types.dc_policies
      in
      Some { cfg with Types.dc_policies = policies }

(** Apply one deletion command (tokens after the [no]/[undo] keyword). *)
let apply_delete (cfg : Types.t) (tokens : string list) (raw : string) :
    (Types.t, del_error) result =
  let fail msg = Error { del_line = raw; del_msg = msg } in
  match tokens with
  (* delete a route-map / route-policy node *)
  | [ "route-map"; name; seq ]
  | [ "route-map"; name; ("permit" | "deny"); seq ]
  | [ "route-policy"; name; "node"; seq ]
  | [ "route-policy"; name; ("permit" | "deny"); "node"; seq ] -> (
      match L.int_opt seq with
      | None -> fail "bad sequence number"
      | Some seq -> (
          match
            update_policy_nodes cfg name (fun nodes ->
                List.filter (fun n -> n.Types.pn_seq <> seq) nodes)
          with
          | Some cfg' ->
              if
                Types.Smap.mem name cfg.Types.dc_policies
                && Types.find_policy cfg name
                   = Types.find_policy cfg' name
              then fail (Printf.sprintf "node %d not found in %s" seq name)
              else Ok cfg'
          | None -> fail (Printf.sprintf "policy %s not found" name)))
  (* delete an entire route-map / route-policy *)
  | [ "route-map"; name ] | [ "route-policy"; name ] ->
      if Types.Smap.mem name cfg.Types.dc_policies then
        Ok
          { cfg with
            Types.dc_policies = Types.Smap.remove name cfg.Types.dc_policies }
      else fail (Printf.sprintf "policy %s not found" name)
  (* delete a prefix-list entry *)
  | [ "ip"; "prefix-list"; name; "seq"; seq ]
  | [ "ipv6"; "prefix-list"; name; "seq"; seq ]
  | [ "ip"; "ip-prefix"; name; "index"; seq ]
  | [ "ip"; "ipv6-prefix"; name; "index"; seq ] -> (
      match (L.int_opt seq, Types.find_prefix_list cfg name) with
      | Some seq, Some pl ->
          let entries =
            List.filter (fun e -> e.Types.pe_seq <> seq) pl.Types.pl_entries
          in
          let pls =
            if entries = [] then Types.Smap.remove name cfg.Types.dc_prefix_lists
            else
              Types.Smap.add name
                { pl with Types.pl_entries = entries }
                cfg.Types.dc_prefix_lists
          in
          Ok { cfg with Types.dc_prefix_lists = pls }
      | None, _ -> fail "bad sequence number"
      | _, None -> fail (Printf.sprintf "prefix-list %s not found" name))
  (* delete a whole prefix list *)
  | [ "ip"; "prefix-list"; name ] | [ "ip"; "ip-prefix"; name ] ->
      if Types.Smap.mem name cfg.Types.dc_prefix_lists then
        Ok
          { cfg with
            Types.dc_prefix_lists =
              Types.Smap.remove name cfg.Types.dc_prefix_lists }
      else fail (Printf.sprintf "prefix-list %s not found" name)
  (* delete a community list *)
  | [ "ip"; "community-list"; name ] | [ "ip"; "community-filter"; name ] ->
      if Types.Smap.mem name cfg.Types.dc_community_lists then
        Ok
          { cfg with
            Types.dc_community_lists =
              Types.Smap.remove name cfg.Types.dc_community_lists }
      else fail (Printf.sprintf "community-list %s not found" name)
  (* delete a BGP neighbor *)
  | [ "router"; "bgp"; "neighbor"; ip ] | [ "bgp"; "peer"; ip ] -> (
      match Ip.of_string ip with
      | None -> fail "bad neighbor address"
      | Some addr ->
          let bgp = cfg.Types.dc_bgp in
          let kept =
            List.filter
              (fun (n : Types.neighbor) -> not (Ip.equal n.Types.nb_addr addr))
              bgp.Types.bgp_neighbors
          in
          if List.length kept = List.length bgp.Types.bgp_neighbors then
            fail (Printf.sprintf "neighbor %s not found" ip)
          else
            Ok
              { cfg with
                Types.dc_bgp = { bgp with Types.bgp_neighbors = kept } })
  (* delete a BGP network statement *)
  | [ "router"; "bgp"; "network"; p ] | [ "bgp"; "network"; p ] -> (
      match Prefix.of_string p with
      | None -> fail "bad prefix"
      | Some p ->
          let bgp = cfg.Types.dc_bgp in
          let kept =
            List.filter
              (fun (q, _) -> not (Prefix.equal p q))
              bgp.Types.bgp_networks
          in
          if List.length kept = List.length bgp.Types.bgp_networks then
            fail (Printf.sprintf "network %s not found" (Prefix.to_string p))
          else
            Ok
              { cfg with Types.dc_bgp = { bgp with Types.bgp_networks = kept } })
  (* delete a static route *)
  | [ "ip"; "route"; p ] -> (
      match Prefix.of_string p with
      | None -> fail "bad prefix"
      | Some p ->
          let kept =
            List.filter
              (fun (s : Types.static_route) ->
                not (Prefix.equal s.Types.st_prefix p))
              cfg.Types.dc_statics
          in
          if List.length kept = List.length cfg.Types.dc_statics then
            fail (Printf.sprintf "static %s not found" (Prefix.to_string p))
          else Ok { cfg with Types.dc_statics = kept })
  | [ "ip"; "route-static"; addr; len ] -> (
      match
        (Option.bind
           (match (Ip.of_string addr, L.int_opt len) with
           | Some addr, Some len -> Some (addr, len)
           | _ -> None)
           (fun (addr, len) -> Prefix.make_opt addr len))
      with
      | Some p ->
          let kept =
            List.filter
              (fun (s : Types.static_route) ->
                not (Prefix.equal s.Types.st_prefix p))
              cfg.Types.dc_statics
          in
          if List.length kept = List.length cfg.Types.dc_statics then
            fail (Printf.sprintf "static %s not found" (Prefix.to_string p))
          else Ok { cfg with Types.dc_statics = kept }
      | _ -> fail "bad static route")
  (* delete an SR policy *)
  | [ "segment-routing"; "policy"; name ] | [ "sr-policy"; name ] ->
      let kept =
        List.filter
          (fun (s : Types.sr_policy) -> not (String.equal s.Types.sp_name name))
          cfg.Types.dc_sr_policies
      in
      if List.length kept = List.length cfg.Types.dc_sr_policies then
        fail (Printf.sprintf "sr policy %s not found" name)
      else Ok { cfg with Types.dc_sr_policies = kept }
  | _ -> fail "unknown deletion command"

(* ------------------------------------------------------------------ *)
(* Command-block application                                           *)
(* ------------------------------------------------------------------ *)

(** One command line the application pass could not act on, with enough
    structure (device comes from the enclosing report) for the analysis
    layer to render it as a located diagnostic instead of a bare count. *)
type issue_kind = Parse | Delete

type line_issue = {
  ci_lnum : int; (* 1-based line number within the command block *)
  ci_text : string; (* the raw command line, trimmed *)
  ci_kind : issue_kind;
  ci_msg : string;
}

type apply_report = {
  ar_device : string;
  ar_issues : line_issue list; (* in block order *)
}

let issue_to_string (i : line_issue) =
  Printf.sprintf "line %d: %s%s" i.ci_lnum i.ci_msg
    (if i.ci_text = "" then "" else Printf.sprintf " (%s)" i.ci_text)

let parse_issues r =
  List.filter (fun i -> i.ci_kind = Parse) r.ar_issues

let delete_issues r =
  List.filter (fun i -> i.ci_kind = Delete) r.ar_issues

(** A report for a command block that never reached a device config
    (e.g. the plan names an unknown device). *)
let report_failure ~device msg =
  {
    ar_device = device;
    ar_issues = [ { ci_lnum = 0; ci_text = ""; ci_kind = Parse; ci_msg = msg } ];
  }

(** Apply a command block (in the device's own dialect) to its config.
    Deletion lines start with [no] (vendor A) or [undo] (vendor B); the
    other lines are parsed as a config fragment and merged.  Lines the
    pass cannot act on (parse failures, deletions of absent objects) come
    back as structured {!line_issue}s carrying the original block line
    number and raw text. *)
let apply_commands (cfg : Types.t) (block : string) : Types.t * apply_report =
  let is_delete l =
    let t = String.trim l in
    String.length t > 3
    && (String.sub t 0 3 = "no " || (String.length t > 5 && String.sub t 0 5 = "undo "))
  in
  let numbered =
    String.split_on_char '\n' block |> List.mapi (fun i l -> (i + 1, l))
  in
  let deletes = List.filter (fun (_, l) -> is_delete l) numbered in
  let adds = List.filter (fun (_, l) -> not (is_delete l)) numbered in
  (* additions: parse the non-delete lines as one fragment; parser line
     numbers index into that fragment, so map them back to the block *)
  let adds_arr = Array.of_list adds in
  let delta, parse_errors =
    Printer.parse ~vendor:cfg.Types.dc_vendor ~device:cfg.Types.dc_device
      (String.concat "\n" (List.map snd adds))
  in
  let parse_issue (e : L.error) =
    let lnum, text =
      let idx = e.L.err_line - 1 in
      if idx >= 0 && idx < Array.length adds_arr then
        (fst adds_arr.(idx), String.trim (snd adds_arr.(idx)))
      else (e.L.err_line, "")
    in
    { ci_lnum = lnum; ci_text = text; ci_kind = Parse; ci_msg = e.L.err_msg }
  in
  (* a bare device-name-only delta (no content) keeps the base unchanged *)
  let cfg = merge cfg delta in
  (* deletions, in order *)
  let cfg, del_issues =
    List.fold_left
      (fun (cfg, errs) (lnum, raw) ->
        let tokens = L.tokenize_line (String.trim raw) in
        let tokens =
          match tokens with
          | "no" :: rest -> rest
          | "undo" :: rest -> rest
          | rest -> rest
        in
        match apply_delete cfg tokens raw with
        | Ok cfg' -> (cfg', errs)
        | Error e ->
            ( cfg,
              {
                ci_lnum = lnum;
                ci_text = String.trim e.del_line;
                ci_kind = Delete;
                ci_msg = e.del_msg;
              }
              :: errs ))
      (cfg, []) deletes
  in
  let issues =
    List.sort
      (fun a b -> Int.compare a.ci_lnum b.ci_lnum)
      (List.map parse_issue parse_errors @ List.rev del_issues)
  in
  (cfg, { ar_device = cfg.Types.dc_device; ar_issues = issues })

(* ------------------------------------------------------------------ *)
(* Plan application                                                    *)
(* ------------------------------------------------------------------ *)

(** What one command block did: patched a device config, or named a
    device the network does not have ("typos in the names of routers to
    be changed ... would cause the change to be ineffective on some
    routers", Table 6). *)
type step =
  | Patched of {
      st_device : string;
      st_block : string;
      st_before : Types.t;
      st_after : Types.t;
      st_report : apply_report;
    }
  | Unknown_device of apply_report

let step_report = function
  | Patched { st_report; _ } -> st_report
  | Unknown_device r -> r

type applied = {
  ap_topo : Topology.t option; (* [None] when no topology was given *)
  ap_configs : Types.t Types.Smap.t;
  ap_steps : step list; (* one per command block, in plan order *)
}

let apply_topo_op topo = function
  | Add_device d -> Topology.add_device topo d
  | Remove_device n -> Topology.remove_device topo n
  | Add_link { la; la_if; lb; lb_if; l_bandwidth } ->
      Topology.add_link topo ~a:la ~a_if:la_if ~b:lb ~b_if:lb_if
        ~bandwidth:l_bandwidth
  | Remove_link { ra; rb } -> Topology.remove_link topo ~a:ra ~b:rb

(** Apply a plan to a network: topology ops first (a device added by the
    plan gets an empty config, so a later block can configure a
    brand-new router; a removed device loses its config), then each
    command block in plan order, each against the config the earlier
    blocks left. *)
let apply ?topo (configs : Types.t Types.Smap.t) (plan : t) : applied =
  let module Smap = Types.Smap in
  let config_step configs = function
    | Add_device d when not (Smap.mem d.Topology.name configs) ->
        Smap.add d.Topology.name
          (Types.empty ~device:d.Topology.name ~vendor:d.Topology.vendor)
          configs
    | Remove_device n -> Smap.remove n configs
    | Add_device _ | Add_link _ | Remove_link _ -> configs
  in
  let configs = List.fold_left config_step configs plan.cp_topo_ops in
  let configs, steps =
    List.fold_left
      (fun (configs, steps) (dev, block) ->
        match Smap.find_opt dev configs with
        | None ->
            let msg = Printf.sprintf "unknown device %S" dev in
            (configs, Unknown_device (report_failure ~device:dev msg) :: steps)
        | Some cfg ->
            let cfg', report = apply_commands cfg block in
            ( Smap.add dev cfg' configs,
              Patched
                { st_device = dev; st_block = block; st_before = cfg;
                  st_after = cfg'; st_report = report }
              :: steps ))
      (configs, []) plan.cp_commands
  in
  let apply_topo topo = List.fold_left apply_topo_op topo plan.cp_topo_ops in
  {
    ap_topo = Option.map apply_topo topo;
    ap_configs = configs;
    ap_steps = List.rev steps;
  }
