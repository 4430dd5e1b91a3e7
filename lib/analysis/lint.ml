(** The pre-simulation static-analysis pass.

    Lints a configuration corpus (parsed IR + rendered texts), an
    optional change plan, and optional RCL specifications — without
    running any simulation fixpoint.  Every finding is a
    {!Diagnostics.t} with a stable [HOYnnn] code; see
    {!Diagnostics.catalog} for the full check list.

    The pass is deliberately conservative: a check only fires when the
    defect is certain under the device's vendor semantic profile
    ({!Hoyan_config.Vsb}), so a clean corpus lints clean (zero false
    positives is an acceptance criterion, not an aspiration). *)

open Hoyan_net
module Types = Hoyan_config.Types
module Vsb = Hoyan_config.Vsb
module Cp = Hoyan_config.Change_plan
module Printer = Hoyan_config.Printer
module L = Hoyan_config.Lexutil
module Regex = Hoyan_regex.Regex
module Ast = Hoyan_rcl.Ast
module Value = Hoyan_rcl.Value
module D = Diagnostics
module Smap = Types.Smap

type input = {
  li_configs : Types.t Smap.t; (* parsed device configs by device name *)
  li_texts : string option Lazy.t Smap.t;
      (* rendered dialect text, for line locations: printed by [locate]
         on first use, [None] for an unknown vendor *)
  li_topo : Topology.t option;
  li_plan : Cp.t option;
  li_specs : (string * string) list; (* (label, RCL source) *)
}

let lazy_texts (configs : Types.t Smap.t) : string option Lazy.t Smap.t =
  Smap.map
    (fun cfg ->
      lazy
        (match Printer.print cfg with
        | text -> Some text
        | exception Invalid_argument _ -> None))
    configs

(* Nothing is printed here: a device's text is printed only when a
   finding on it asks for a line.  [render = false] drops line numbers
   altogether; only the benchmark passes it. *)
let make ?topo ?plan ?(specs = []) ?(render = true) (configs : Types.t Smap.t)
    : input =
  {
    li_configs = configs;
    li_texts = (if render then lazy_texts configs else Smap.empty);
    li_topo = topo;
    li_plan = plan;
    li_specs = specs;
  }

(* ------------------------------------------------------------------ *)
(* Line location                                                       *)
(* ------------------------------------------------------------------ *)

let comment_char vendor = if String.equal vendor "vendorB" then '#' else '!'

(** First line of the device's rendered config whose tokens contain every
    needle token.  Good enough to anchor a diagnostic to the offending
    statement; [None] when the construct has no syntactic rendering. *)
let locate (input : input) (cfg : Types.t) (needles : string list) :
    int option =
  match
    Option.bind (Smap.find_opt cfg.Types.dc_device input.li_texts) Lazy.force
  with
  | None -> None
  | Some text ->
      L.lines_of_string ~comment:(comment_char cfg.Types.dc_vendor) text
      |> List.find_map (fun (l : L.line) ->
             if List.for_all (fun n -> List.mem n l.L.tokens) needles then
               Some l.L.lnum
             else None)

(* ------------------------------------------------------------------ *)
(* Prefix-entry containment (shared by HOY007 / HOY008)                *)
(* ------------------------------------------------------------------ *)

(** [entry_covers e e']: every prefix matched by [e'] is matched by [e].
    Exact for an [e'] that matches anything: its prefixes realise every
    length of its {!Types.prefix_entry_range}, all inside its own
    prefix. *)
let entry_covers (e : Types.prefix_entry) (e' : Types.prefix_entry) : bool =
  Prefix.subsumes e.Types.pe_prefix e'.Types.pe_prefix
  &&
  let lo, hi = Types.prefix_entry_range e
  and lo', hi' = Types.prefix_entry_range e' in
  lo <= lo' && hi >= hi'

(** Entries of [pl] that can never match because an earlier entry (any
    action — evaluation is first-match) covers their whole range.
    Returns [(shadowed, shadowing)] pairs.  Uses a prefix trie of the
    earlier entries so the scan is near-linear in practice. *)
let shadowed_entries (pl : Types.prefix_list) :
    (Types.prefix_entry * Types.prefix_entry) list =
  let trie = ref Trie.Dual.empty in
  List.filter_map
    (fun (e : Types.prefix_entry) ->
      let shadow =
        Trie.Dual.all_matches !trie (Prefix.first_addr e.Types.pe_prefix)
        |> List.concat_map (fun (p, es) ->
               if Prefix.len p <= Prefix.len e.Types.pe_prefix then es else [])
        |> List.find_opt (fun e0 -> entry_covers e0 e)
      in
      (trie :=
         Trie.Dual.update !trie e.Types.pe_prefix (function
           | None -> Some [ e ]
           | Some es -> Some (e :: es)));
      Option.map (fun e0 -> (e, e0)) shadow)
    pl.Types.pl_entries

(* ------------------------------------------------------------------ *)
(* Policy-term shadowing (HOY007)                                      *)
(* ------------------------------------------------------------------ *)

(** Does clause [ck] imply clause [cj] (every route matching [ck] matches
    [cj])?  Conservative: syntactic equality, plus prefix-list
    containment when both lists are defined, same-family, and the
    implied list is deny-free (so coverage of permit entries suffices
    under first-match evaluation; cross-family routes hit the same VSB
    default on both lists). *)
let clause_implies (cfg : Types.t) (ck : Types.match_clause)
    (cj : Types.match_clause) : bool =
  ck = cj
  ||
  match (ck, cj) with
  | Types.Match_prefix_list lk, Types.Match_prefix_list lj -> (
      match (Types.find_prefix_list cfg lk, Types.find_prefix_list cfg lj) with
      | Some plk, Some plj ->
          plk.Types.pl_family = plj.Types.pl_family
          && List.for_all
               (fun (e : Types.prefix_entry) -> e.Types.pe_action = Types.Permit)
               plj.Types.pl_entries
          && List.for_all
               (fun (ek : Types.prefix_entry) ->
                 ek.Types.pe_action = Types.Deny
                 || List.exists
                      (fun ej -> entry_covers ej ek)
                      plj.Types.pl_entries)
               plk.Types.pl_entries
      | _ -> false)
  | _ -> false

(** Does earlier node [j] shadow later node [k]?  Requires [j] to stop
    evaluation on match (no goto-next) and [j]'s whole conjunction to be
    implied by [k]'s: every route reaching [k]'s conditions already
    terminated at [j]. *)
let node_shadows (cfg : Types.t) (j : Types.policy_node)
    (k : Types.policy_node) : bool =
  (not j.Types.pn_goto_next)
  && List.for_all
       (fun cj ->
         List.exists (fun ck -> clause_implies cfg ck cj) k.Types.pn_matches)
       j.Types.pn_matches

(* ------------------------------------------------------------------ *)
(* Per-device configuration checks                                     *)
(* ------------------------------------------------------------------ *)

let check_config (input : input) (cfg : Types.t) : D.t list =
  let dev = cfg.Types.dc_device in
  let diags = ref [] in
  let add ~code ?obj ~needles fmt =
    Printf.ksprintf
      (fun msg ->
        diags :=
          D.make ~code ~device:dev ?obj ?line:(locate input cfg needles) "%s"
            msg
          :: !diags)
      fmt
  in
  (* HOY001/2/3 — undefined filters referenced from policy matches *)
  Smap.iter
    (fun pname (rp : Types.route_policy) ->
      List.iter
        (fun (node : Types.policy_node) ->
          let obj =
            Printf.sprintf "route-policy %s node %d" pname node.Types.pn_seq
          in
          List.iter
            (fun (m : Types.match_clause) ->
              match m with
              | Types.Match_prefix_list n
                when Types.find_prefix_list cfg n = None ->
                  add ~code:"HOY001" ~obj ~needles:[ n ]
                    "match references undefined prefix list %s" n
              | Types.Match_community_list n
                when Types.find_community_list cfg n = None ->
                  add ~code:"HOY002" ~obj ~needles:[ n ]
                    "match references undefined community list %s" n
              | Types.Match_aspath_filter n
                when Types.find_aspath_filter cfg n = None ->
                  add ~code:"HOY003" ~obj ~needles:[ n ]
                    "match references undefined as-path filter %s" n
              | _ -> ())
            node.Types.pn_matches)
        rp.Types.rp_nodes)
    cfg.Types.dc_policies;
  (* HOY004 — undefined route policies on sessions / redistribution / VRFs *)
  let policy_defined p = Types.find_policy cfg p <> None in
  List.iter
    (fun (nb : Types.neighbor) ->
      let ip = Ip.to_string nb.Types.nb_addr in
      let chk dir = function
        | Some p when not (policy_defined p) ->
            add ~code:"HOY004"
              ~obj:(Printf.sprintf "neighbor %s %s" ip dir)
              ~needles:[ ip; p ] "%s policy %s is not defined" dir p
        | _ -> ()
      in
      chk "import" nb.Types.nb_import;
      chk "export" nb.Types.nb_export)
    cfg.Types.dc_bgp.Types.bgp_neighbors;
  List.iter
    (fun (proto, pol) ->
      match pol with
      | Some p when not (policy_defined p) ->
          add ~code:"HOY004"
            ~obj:
              (Printf.sprintf "redistribute %s"
                 (Hoyan_net.Route.proto_to_string proto))
            ~needles:[ "redistribute"; p ]
            "redistribution policy %s is not defined" p
      | _ -> ())
    cfg.Types.dc_bgp.Types.bgp_redistribute;
  List.iter
    (fun (vd : Types.vrf_def) ->
      match vd.Types.vd_export_policy with
      | Some p when not (policy_defined p) ->
          add ~code:"HOY004"
            ~obj:(Printf.sprintf "vrf %s export-policy" vd.Types.vd_name)
            ~needles:[ p ] "VRF export policy %s is not defined" p
      | _ -> ())
    cfg.Types.dc_bgp.Types.bgp_vrfs;
  (* HOY005 — undefined ACLs *)
  let acl_defined a = Types.find_acl cfg a <> None in
  List.iter
    (fun (i : Types.iface_config) ->
      match i.Types.if_acl_in with
      | Some a when not (acl_defined a) ->
          add ~code:"HOY005"
            ~obj:(Printf.sprintf "interface %s" i.Types.if_name)
            ~needles:[ a ] "inbound ACL %s is not defined" a
      | _ -> ())
    cfg.Types.dc_ifaces;
  List.iter
    (fun (p : Types.pbr_rule) ->
      if not (acl_defined p.Types.pbr_acl) then
        add ~code:"HOY005"
          ~obj:(Printf.sprintf "pbr on %s" p.Types.pbr_iface)
          ~needles:[ p.Types.pbr_acl ] "PBR ACL %s is not defined"
          p.Types.pbr_acl)
    cfg.Types.dc_pbr;
  (* HOY019 — undefined interfaces *)
  let iface_defined n = Types.iface cfg n <> None in
  List.iter
    (fun (p : Types.pbr_rule) ->
      if not (iface_defined p.Types.pbr_iface) then
        add ~code:"HOY019"
          ~obj:(Printf.sprintf "pbr on %s" p.Types.pbr_iface)
          ~needles:[ p.Types.pbr_iface ]
          "PBR rule is bound to undefined interface %s" p.Types.pbr_iface)
    cfg.Types.dc_pbr;
  List.iter
    (fun (ii : Types.isis_iface) ->
      if not (iface_defined ii.Types.ii_name) then
        add ~code:"HOY019"
          ~obj:(Printf.sprintf "isis interface %s" ii.Types.ii_name)
          ~needles:[ ii.Types.ii_name ]
          "IS-IS references undefined interface %s" ii.Types.ii_name)
    cfg.Types.dc_isis.Types.isis_ifaces;
  (* HOY006 — eBGP session without policy on a strict-profile vendor *)
  (match Vsb.of_vendor cfg.Types.dc_vendor with
  | Some vsb when not vsb.Vsb.missing_policy_accepts ->
      List.iter
        (fun (nb : Types.neighbor) ->
          let ebgp =
            nb.Types.nb_remote_asn <> 0
            && nb.Types.nb_remote_asn <> cfg.Types.dc_bgp.Types.bgp_asn
          in
          if ebgp && (nb.Types.nb_import = None || nb.Types.nb_export = None)
          then
            let ip = Ip.to_string nb.Types.nb_addr in
            add ~code:"HOY006"
              ~obj:(Printf.sprintf "neighbor %s" ip)
              ~needles:[ ip ]
              "eBGP session to AS %d has no %s policy; vendor %s rejects \
               updates without one"
              nb.Types.nb_remote_asn
              (match (nb.Types.nb_import, nb.Types.nb_export) with
              | None, None -> "import/export"
              | None, _ -> "import"
              | _ -> "export")
              cfg.Types.dc_vendor)
        cfg.Types.dc_bgp.Types.bgp_neighbors
  | _ -> ());
  (* HOY007 — shadowed route-policy terms *)
  Smap.iter
    (fun pname (rp : Types.route_policy) ->
      let rec scan = function
        | [] -> ()
        | (j : Types.policy_node) :: rest ->
            List.iter
              (fun (k : Types.policy_node) ->
                if node_shadows cfg j k then
                  add ~code:"HOY007"
                    ~obj:
                      (Printf.sprintf "route-policy %s node %d" pname
                         k.Types.pn_seq)
                    ~needles:[ pname; string_of_int k.Types.pn_seq ]
                    "node %d can never match: node %d already matches every \
                     route it would"
                    k.Types.pn_seq j.Types.pn_seq)
              rest;
            scan rest
      in
      scan rp.Types.rp_nodes)
    cfg.Types.dc_policies;
  (* HOY008 — fully-shadowed prefix-list entries *)
  Smap.iter
    (fun plname (pl : Types.prefix_list) ->
      List.iter
        (fun ((e : Types.prefix_entry), (e0 : Types.prefix_entry)) ->
          add ~code:"HOY008"
            ~obj:(Printf.sprintf "prefix-list %s seq %d" plname e.Types.pe_seq)
            ~needles:[ plname; string_of_int e.Types.pe_seq ]
            "entry %d (%s) can never match: entry %d (%s) covers its whole \
             range"
            e.Types.pe_seq
            (Prefix.to_string e.Types.pe_prefix)
            e0.Types.pe_seq
            (Prefix.to_string e0.Types.pe_prefix))
        (shadowed_entries pl))
    cfg.Types.dc_prefix_lists;
  (* HOY009 — as-path regexes that do not compile *)
  Smap.iter
    (fun afname (af : Types.aspath_filter) ->
      List.iter
        (fun (ae : Types.aspath_entry) ->
          if Regex.compile_opt ae.Types.ae_regex = None then
            add ~code:"HOY009"
              ~obj:(Printf.sprintf "as-path filter %s seq %d" afname
                      ae.Types.ae_seq)
              ~needles:[ afname ]
              "as-path regex %S does not compile" ae.Types.ae_regex)
        af.Types.af_entries)
    cfg.Types.dc_aspath_filters;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Corpus-wide VRF route-target matching (HOY010 / HOY011)             *)
(* ------------------------------------------------------------------ *)

let vrf_rt_checks (input : input) : D.t list =
  let exported = Hashtbl.create 16 and imported = Hashtbl.create 16 in
  Smap.iter
    (fun _ (cfg : Types.t) ->
      List.iter
        (fun (vd : Types.vrf_def) ->
          List.iter (fun rt -> Hashtbl.replace exported rt ())
            vd.Types.vd_export_rts;
          List.iter (fun rt -> Hashtbl.replace imported rt ())
            vd.Types.vd_import_rts)
        cfg.Types.dc_bgp.Types.bgp_vrfs)
    input.li_configs;
  let diags = ref [] in
  Smap.iter
    (fun dev (cfg : Types.t) ->
      List.iter
        (fun (vd : Types.vrf_def) ->
          let obj = Printf.sprintf "vrf %s" vd.Types.vd_name in
          List.iter
            (fun rt ->
              if not (Hashtbl.mem exported rt) then
                diags :=
                  D.make ~code:"HOY010" ~device:dev ~obj
                    ?line:(locate input cfg [ rt ])
                    "imports route target %s which no VRF exports" rt
                  :: !diags)
            vd.Types.vd_import_rts;
          List.iter
            (fun rt ->
              if not (Hashtbl.mem imported rt) then
                diags :=
                  D.make ~code:"HOY011" ~device:dev ~obj
                    ?line:(locate input cfg [ rt ])
                    "exports route target %s which no VRF imports" rt
                  :: !diags)
            vd.Types.vd_export_rts)
        cfg.Types.dc_bgp.Types.bgp_vrfs)
    input.li_configs;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Change-plan checks (HOY012 / HOY013 / HOY014)                       *)
(* ------------------------------------------------------------------ *)

(** The plan diagnostics of one application of [plan] to [input]
    ({!Cp.apply}, the one plan semantics the simulator also uses):
    [steps] are that application's steps, and this is the one rule that
    turns them, and the plan's topology operations, into findings.
    Unknown devices and links are judged against [input], the pre-plan
    network. *)
let plan_diags (input : input) (plan : Cp.t) (steps : Cp.step list) :
    D.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let topo_names =
    match input.li_topo with
    | None -> []
    | Some topo -> Topology.device_names topo
  in
  let added_names =
    List.filter_map
      (function
        | Cp.Add_device d -> Some d.Topology.name
        | _ -> None)
      plan.Cp.cp_topo_ops
  in
  let known dev =
    Smap.mem dev input.li_configs
    || List.mem dev topo_names
    || List.mem dev added_names
  in
  let obj = Printf.sprintf "change plan %s" plan.Cp.cp_name in
  (* topology operations *)
  List.iter
    (fun (op : Cp.topo_op) ->
      match op with
      | Cp.Add_device _ -> ()
      | Cp.Remove_device d ->
          if not (known d) then
            add
              (D.make ~code:"HOY012" ~device:d ~obj
                 "topology op removes unknown device %s" d)
      | Cp.Add_link { la; lb; _ } ->
          List.iter
            (fun d ->
              if not (known d) then
                add
                  (D.make ~code:"HOY012" ~device:d ~obj
                     "topology op links unknown device %s" d))
            [ la; lb ]
      | Cp.Remove_link { ra; rb } ->
          if not (known ra) || not (known rb) then
            List.iter
              (fun d ->
                if not (known d) then
                  add
                    (D.make ~code:"HOY012" ~device:d ~obj
                       "topology op unlinks unknown device %s" d))
              [ ra; rb ]
          else
            Option.iter
              (fun topo ->
                if
                  Topology.edge_between topo ra rb = None
                  && Topology.edge_between topo rb ra = None
                then
                  add
                    (D.make ~code:"HOY013" ~device:ra ~obj
                       "topology op removes non-existent link %s -- %s" ra rb))
              input.li_topo)
    plan.Cp.cp_topo_ops;
  (* command blocks: a device the plan adds is configured from empty, a
     removed one is gone *)
  List.iter
    (function
      | Cp.Unknown_device r ->
          let dev = r.Cp.ar_device in
          if List.mem (Cp.Remove_device dev) plan.Cp.cp_topo_ops then
            add
              (D.make ~code:"HOY012" ~device:dev ~obj
                 "command block targets device %s that the plan removes" dev)
          else if not (known dev) then
            add
              (D.make ~code:"HOY012" ~device:dev ~obj
                 "command block targets unknown device %s" dev)
      | Cp.Patched { st_device = dev; st_report; _ } ->
          List.iter
            (fun (i : Cp.line_issue) ->
              match i.Cp.ci_kind with
              | Cp.Parse ->
                  add
                    (D.make ~code:"HOY014" ~device:dev
                       ~obj:(if i.Cp.ci_text = "" then obj else i.Cp.ci_text)
                       ~line:i.Cp.ci_lnum "command does not parse: %s"
                       i.Cp.ci_msg)
              | Cp.Delete ->
                  add
                    (D.make ~code:"HOY013" ~device:dev ~obj:i.Cp.ci_text
                       ~line:i.Cp.ci_lnum "deletion does not apply: %s"
                       i.Cp.ci_msg))
            st_report.Cp.ar_issues)
    steps;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* RCL specification checks (HOY015..HOY018)                           *)
(* ------------------------------------------------------------------ *)

type field_kind = Knum | Kstr | Kset

let field_kind = function
  | "localPref" | "med" | "weight" | "preference" | "igpCost" | "tag" -> Knum
  | "communities" -> Kset
  | _ -> Kstr

let kind_name = function Knum -> "number" | Kstr -> "string" | Kset -> "set"

let value_kind = function
  | Value.Num _ -> Knum
  | Value.Str _ -> Kstr
  | Value.Set _ -> Kset

let is_ordering = function
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
  | Ast.Eq | Ast.Ne -> false

(** Collect every predicate appearing anywhere in an intent (guards and
    RIB-transformation filters). *)
let preds_of_intent (g : Ast.intent) : Ast.pred list =
  let acc = ref [] in
  let rec transform = function
    | Ast.T_pre | Ast.T_post -> ()
    | Ast.T_filter (r, p) ->
        acc := p :: !acc;
        transform r
  in
  let rec eval = function
    | Ast.E_val _ -> ()
    | Ast.E_agg (r, _) -> transform r
    | Ast.E_arith (a, _, b) ->
        eval a;
        eval b
  in
  let rec intent = function
    | Ast.G_rib_cmp (r1, _, r2) ->
        transform r1;
        transform r2
    | Ast.G_eval_cmp (e1, _, e2) ->
        eval e1;
        eval e2
    | Ast.G_guard (p, g) ->
        acc := p :: !acc;
        intent g
    | Ast.G_forall (_, g) | Ast.G_forall_in (_, _, g) | Ast.G_not g -> intent g
    | Ast.G_and (a, b) | Ast.G_or (a, b) | Ast.G_imply (a, b) ->
        intent a;
        intent b
  in
  intent g;
  List.rev !acc

(** HOY016 / HOY017 on one atomic predicate. *)
let check_atom ~add (p : Ast.pred) =
  let bad_field f =
    if not (Hoyan_rcl.Fields.is_field f) then (
      add "HOY016" (Printf.sprintf "unknown field %s" f);
      true)
    else false
  in
  match p with
  | Ast.P_cmp (f, op, v) ->
      if not (bad_field f) then (
        let fk = field_kind f and vk = value_kind v in
        if fk = Kset then (
          if is_ordering op then
            add "HOY016"
              (Printf.sprintf "field %s is a set; ordering comparison %s \
                               never holds"
                 f (Ast.cmp_to_string op))
          else if vk <> Kset then
            add "HOY016"
              (Printf.sprintf
                 "field %s is a set but is compared against a %s literal" f
                 (kind_name vk)))
        else if vk <> fk then
          add "HOY016"
            (Printf.sprintf
               "field %s is a %s but is compared against a %s literal \
                (comparison is constant)"
               f (kind_name fk) (kind_name vk)))
  | Ast.P_contains (f, _) ->
      if not (bad_field f) then
        if field_kind f <> Kset then
          add "HOY016"
            (Printf.sprintf
               "'contains' on scalar field %s (only sets contain values)" f)
  | Ast.P_in (f, vs) ->
      if not (bad_field f) then
        let fk = field_kind f in
        if fk <> Kset then
          List.iter
            (fun v ->
              if value_kind v <> fk then
                add "HOY016"
                  (Printf.sprintf
                     "field %s is a %s but the 'in' set holds a %s value" f
                     (kind_name fk)
                     (kind_name (value_kind v))))
            vs
  | Ast.P_matches (f, re) ->
      if not (bad_field f) then (
        if field_kind f = Kset then
          add "HOY016"
            (Printf.sprintf "'matches' on set field %s never holds" f);
        if Regex.compile_opt re = None then
          add "HOY017" (Printf.sprintf "regex %S does not compile" re))
  | Ast.P_and _ | Ast.P_or _ | Ast.P_imply _ | Ast.P_not _ -> ()

(** HOY018: flatten maximal conjunctions and look for per-field
    contradictions — two different equalities, empty numeric interval,
    an equality outside the interval or outside every 'in' set, or two
    disjoint 'in' sets. *)
let rec conjuncts = function
  | Ast.P_and (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let check_conjunction ~add (cs : Ast.pred list) =
  let fields =
    List.filter_map
      (function
        | Ast.P_cmp (f, _, _) | Ast.P_in (f, _) -> Some f
        | _ -> None)
      cs
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun f ->
      let eqs =
        List.filter_map
          (function
            | Ast.P_cmp (f', Ast.Eq, v) when String.equal f f' -> Some v
            | _ -> None)
          cs
      in
      let ins =
        List.filter_map
          (function
            | Ast.P_in (f', vs) when String.equal f f' -> Some vs
            | _ -> None)
          cs
      in
      (* numeric interval from ordering constraints *)
      let lo = ref neg_infinity and lo_strict = ref false in
      let hi = ref infinity and hi_strict = ref false in
      List.iter
        (function
          | Ast.P_cmp (f', op, Value.Num n) when String.equal f f' -> (
              match op with
              | Ast.Gt ->
                  if n > !lo || (n = !lo && not !lo_strict) then (
                    lo := n;
                    lo_strict := true)
              | Ast.Ge -> if n > !lo then (lo := n; lo_strict := false)
              | Ast.Lt ->
                  if n < !hi || (n = !hi && not !hi_strict) then (
                    hi := n;
                    hi_strict := true)
              | Ast.Le -> if n < !hi then (hi := n; hi_strict := false)
              | _ -> ())
          | _ -> ())
        cs;
      let interval_empty =
        !lo > !hi || (!lo = !hi && (!lo_strict || !hi_strict))
      in
      let distinct_eqs =
        match eqs with
        | v :: rest -> List.exists (fun v' -> not (Value.equal v v')) rest
        | [] -> false
      in
      let eq_outside_interval =
        List.exists
          (function
            | Value.Num n ->
                n < !lo || n > !hi
                || (n = !lo && !lo_strict)
                || (n = !hi && !hi_strict)
            | _ -> false)
          eqs
      in
      let eq_outside_in =
        List.exists
          (fun v ->
            List.exists
              (fun vs -> not (List.exists (Value.equal v) vs))
              ins)
          eqs
      in
      let disjoint_ins =
        let rec pairs = function
          | [] -> false
          | vs :: rest ->
              List.exists
                (fun vs' ->
                  not
                    (List.exists
                       (fun v -> List.exists (Value.equal v) vs')
                       vs))
                rest
              || pairs rest
        in
        pairs ins
      in
      if distinct_eqs then
        add "HOY018"
          (Printf.sprintf "field %s is constrained to two different values" f)
      else if interval_empty then
        add "HOY018"
          (Printf.sprintf "numeric constraints on field %s admit no value" f)
      else if eq_outside_interval then
        add "HOY018"
          (Printf.sprintf
             "equality on field %s lies outside its numeric constraints" f)
      else if eq_outside_in then
        add "HOY018"
          (Printf.sprintf
             "equality on field %s is not a member of its 'in' set" f)
      else if disjoint_ins then
        add "HOY018" (Printf.sprintf "'in' sets for field %s are disjoint" f))
    fields

let check_pred ~add (p : Ast.pred) =
  let rec walk p =
    match p with
    | Ast.P_and _ ->
        let cs = conjuncts p in
        check_conjunction ~add cs;
        List.iter
          (fun c ->
            match c with
            | Ast.P_and _ -> () (* flattened above *)
            | Ast.P_or (a, b) | Ast.P_imply (a, b) ->
                walk a;
                walk b
            | Ast.P_not q -> walk q
            | atom -> check_atom ~add atom)
          cs
    | Ast.P_or (a, b) | Ast.P_imply (a, b) ->
        walk a;
        walk b
    | Ast.P_not q -> walk q
    | atom -> check_atom ~add atom
  in
  walk p

let check_spec ((label, src) : string * string) : D.t list =
  let diags = ref [] in
  match Hoyan_rcl.Parser.parse src with
  | Error msg ->
      [ D.make ~code:"HOY015" ~obj:(Printf.sprintf "spec %s" label)
          "specification does not parse: %s" msg ]
  | Ok intent ->
      let add code msg =
        diags :=
          D.make ~code ~obj:(Printf.sprintf "spec %s" label) "%s" msg
          :: !diags
      in
      List.iter (check_pred ~add) (preds_of_intent intent);
      List.rev !diags

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

(** Lint a plan that is already applied: [patched] is the post-plan
    input (its [li_plan] is not read), and [steps] are the application
    of [plan] to the pre-plan [base] ({!plan_diags}).  The configuration
    checks run on what the network looks like {e after} the change. *)
let run_applied ~(base : input) (plan : Cp.t) (steps : Cp.step list)
    (patched : input) : D.t list =
  let config_diags =
    Smap.fold
      (fun _ cfg acc -> List.rev_append (check_config patched cfg) acc)
      patched.li_configs []
  in
  let corpus_diags = vrf_rt_checks patched in
  let spec_diags = List.concat_map check_spec patched.li_specs in
  List.sort D.compare_diag
    (plan_diags base plan steps @ config_diags @ corpus_diags @ spec_diags)

(** Lint [input]; with a plan, apply it first and lint the result. *)
let run (input : input) : D.t list =
  match input.li_plan with
  | None -> run_applied ~base:input (Cp.make "none") [] input
  | Some plan ->
      let applied = Cp.apply input.li_configs plan in
      run_applied ~base:input plan applied.Cp.ap_steps
        {
          input with
          li_configs = applied.Cp.ap_configs;
          li_texts = lazy_texts applied.Cp.ap_configs;
        }

let has_errors ds =
  List.exists (fun (d : D.t) -> d.D.d_severity = D.Error) ds
