(** Traffic simulation: input flows -> forwarding paths and link loads.

    After route simulation produces the RIBs, Hoyan simulates the
    forwarding of all input flows by following each router's FIB (§3.1),
    producing per-flow forwarding paths and per-link traffic loads.  Flow
    equivalence classes (same longest-prefix match on all RIBs, plus the
    same ACL/PBR behaviour) reduce the number of simulated flows by about
    two orders of magnitude in production.

    ECMP is modelled by splitting a flow's volume equally across equal-
    cost branches (both BGP multipath and IGP ECMP); SR-policy tunnels
    override hop-by-hop forwarding for next hops that are tunnel
    endpoints; PBR rules bound to the ingress interface override the FIB;
    interface ACLs drop matching traffic. *)

open Hoyan_net
module Types = Hoyan_config.Types
module Isis = Hoyan_proto.Isis
module Sr = Hoyan_proto.Sr
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* FIB construction                                                    *)
(* ------------------------------------------------------------------ *)

type fib = (string, Route.t list Trie.Dual.t) Hashtbl.t

(** The install rule for one (device, prefix) slot: of the slot's
    rows, the selected (Best/Ecmp) ones of the lowest admin preference,
    [Route.compare]-sorted.  Protocol selection happens among the
    selected routes only: BGP has already picked its best path(s), and
    the admin preference then arbitrates between protocols.  [[]] means
    nothing is installed. *)
let install (rows : Route.t list) : Route.t list =
  let selected = List.filter Route.selected rows in
  let min_pref =
    List.fold_left (fun m (r : Route.t) -> min m r.Route.preference)
      max_int selected
  in
  List.filter (fun (r : Route.t) -> r.Route.preference = min_pref) selected
  |> List.sort Route.compare

(** One device's FIB, in one pass over its chunk: the chunk is sorted by
    (vrf, prefix), so each default-VRF slot is a run of consecutive
    rows.  Each run binds its {!install}ed routes; [None] when nothing
    is installed. *)
let build_fib (chunk : Rib.t) : Route.t list Trie.Dual.t option =
  let b = Trie.Dual.Builder.create () in
  let flush prefix rows =
    match install rows with
    | [] -> ()
    | installed -> Trie.Dual.Builder.add b prefix installed
  in
  (* the open run: its prefix and rows *)
  let run = ref None in
  Rib.iter
    (fun (r : Route.t) ->
      if String.equal r.Route.vrf Route.default_vrf then
        match !run with
        | Some (p, rows) when Prefix.equal p r.Route.prefix ->
            run := Some (p, r :: rows)
        | open_run ->
            Option.iter (fun (p, rows) -> flush p rows) open_run;
            run := Some (r.Route.prefix, [ r ]))
    chunk;
  Option.iter (fun (p, rows) -> flush p rows) !run;
  let trie = Trie.Dual.Builder.build b in
  if Trie.Dual.is_empty trie then None else Some trie

(** Build per-device FIBs (default VRF) from a global RIB: each
    (device, prefix) slot binds its {!install}ed routes.  Leaf route
    lists are [Route.compare]-sorted, so the trie contents are a
    function of the RIB's row {e set} — never its list order.  That
    canonicalization is what lets the incremental engine patch a base
    build slot by slot ({!patch_fibs}) with byte-identical traffic
    results.  Each device's trie reads only its own chunk
    ({!build_fib}), so the devices run on {!Parallel.map} domains.  A
    device with nothing installed gets no trie. *)
let build_fibs (rib : Rib.t) : fib =
  let tries =
    Parallel.map (fun (dev, chunk) -> (dev, build_fib chunk))
      (Rib.by_device rib)
  in
  let fibs : fib = Hashtbl.create (List.length tries) in
  List.iter
    (function
      | dev, Some trie -> Hashtbl.replace fibs dev trie | _, None -> ())
    tries;
  fibs

let fib_lookup (fibs : fib) dev (addr : Ip.t) :
    (Prefix.t * Route.t list) option =
  match Hashtbl.find_opt fibs dev with
  | None -> None
  | Some trie -> Trie.Dual.longest_match trie addr

(* ------------------------------------------------------------------ *)
(* Flow walking                                                        *)
(* ------------------------------------------------------------------ *)

type path = { hops : string list; fraction : float }

type walk_result = {
  w_paths : path list; (* delivered paths (capped) *)
  w_edges : ((string * string) * float) list; (* traversed edge fractions *)
  w_delivered : float;
  w_dropped : float;
  w_looped : float;
}

let max_depth = 64
let max_paths = 128

type walker = {
  wk_model : Model.t;
  wk_fibs : fib;
  mutable wk_paths : path list;
  mutable wk_npaths : int;
  wk_edges : (string * string, float) Hashtbl.t;
  mutable wk_delivered : float;
  mutable wk_dropped : float;
  mutable wk_looped : float;
}

let record_edge wk src dst frac =
  let key = (src, dst) in
  let cur = Option.value (Hashtbl.find_opt wk.wk_edges key) ~default:0. in
  Hashtbl.replace wk.wk_edges key (cur +. frac)

let record_path wk hops frac =
  wk.wk_delivered <- wk.wk_delivered +. frac;
  if wk.wk_npaths < max_paths then begin
    wk.wk_paths <- { hops = List.rev hops; fraction = frac } :: wk.wk_paths;
    wk.wk_npaths <- wk.wk_npaths + 1
  end

(** The in-interface at [next] when arriving from [cur]. *)
let in_iface_at (model : Model.t) ~cur ~next =
  match Topology.edge_between model.Model.topo cur next with
  | Some e -> Some e.Topology.dst_if
  | None -> None

let acl_matches_flow cfg acl_name (f : Flow.t) =
  match Types.find_acl cfg acl_name with
  | None -> None
  | Some acl ->
      Types.acl_eval acl ~src:f.Flow.src ~dst:f.Flow.dst ~proto:f.Flow.ip_proto
        ~dport:f.Flow.dport

(** Follow an SR tunnel's explicit path, recording edges; returns the tail
    device (or None when the path is broken in the current topology). *)
let follow_tunnel wk (tunnel : Sr.tunnel) frac : string option =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if Option.is_some (Topology.edge_between wk.wk_model.Model.topo a b)
        then begin
          record_edge wk a b frac;
          go rest
        end
        else None
    | [ last ] -> Some last
    | [] -> None
  in
  go tunnel.Sr.tn_path

let rec walk wk (f : Flow.t) ~dev ~in_iface ~frac ~visited ~hops ~depth =
  if frac < 1e-9 then ()
  else if depth > max_depth || List.mem dev visited then
    wk.wk_looped <- wk.wk_looped +. frac
  else
    let model = wk.wk_model in
    let cfg = Smap.find_opt dev model.Model.configs in
    (* 1. ingress ACL *)
    let dropped_by_acl =
      match (cfg, in_iface) with
      | Some cfg, Some ifname -> (
          match Types.iface cfg ifname with
          | Some i -> (
              match i.Types.if_acl_in with
              | Some acl -> (
                  match acl_matches_flow cfg acl f with
                  | Some Types.Deny -> true
                  | Some Types.Permit | None -> false)
              | None -> false)
          | None -> false)
      | _ -> false
    in
    if dropped_by_acl then wk.wk_dropped <- wk.wk_dropped +. frac
    else
      (* 2. PBR override on the ingress interface *)
      let pbr_nh =
        match (cfg, in_iface) with
        | Some cfg, Some ifname ->
            List.find_map
              (fun (p : Types.pbr_rule) ->
                if
                  String.equal p.Types.pbr_iface ifname
                  && (match acl_matches_flow cfg p.Types.pbr_acl f with
                     | Some Types.Permit -> true
                     | Some Types.Deny | None -> false)
                then Some p.Types.pbr_nexthop
                else None)
              cfg.Types.dc_pbr
        | _ -> None
      in
      let nexthops =
        match pbr_nh with
        | Some nh -> `Forward [ Some nh ]
        | None -> (
            match fib_lookup wk.wk_fibs dev f.Flow.dst with
            | None -> `NoRoute
            | Some (_, routes) ->
                let delivered =
                  List.exists
                    (fun (r : Route.t) -> r.Route.proto = Route.Direct)
                    routes
                in
                if delivered then `Delivered
                else `Forward (List.map (fun r -> r.Route.nexthop) routes))
      in
      match nexthops with
      | `NoRoute -> wk.wk_dropped <- wk.wk_dropped +. frac
      | `Delivered -> record_path wk (dev :: hops) frac
      | `Forward nhs ->
          let n = List.length nhs in
          let sub_frac = frac /. float_of_int n in
          List.iter
            (fun nh ->
              match nh with
              | None ->
                  (* locally originated route selected: treat as delivered
                     at this device (e.g. an aggregate originator) *)
                  record_path wk (dev :: hops) sub_frac
              | Some nh -> (
                  (* SR tunnel override *)
                  let tunnels =
                    Option.value (Smap.find_opt dev model.Model.tunnels)
                      ~default:[]
                  in
                  match Sr.tunnel_to tunnels nh with
                  | Some tunnel -> (
                      match follow_tunnel wk tunnel sub_frac with
                      | Some tail ->
                          let tunnel_hops =
                            List.rev (List.tl tunnel.Sr.tn_path)
                          in
                          walk wk f ~dev:tail ~in_iface:None ~frac:sub_frac
                            ~visited:(dev :: visited)
                            ~hops:(tunnel_hops @ hops)
                            ~depth:(depth + 1)
                      | None -> wk.wk_dropped <- wk.wk_dropped +. sub_frac)
                  | None -> (
                      (* who owns the next hop? *)
                      match Model.owner model nh with
                      | Some owner_dev when String.equal owner_dev dev ->
                          record_path wk (dev :: hops) sub_frac
                      | Some owner_dev ->
                          (* recursive next hop: the packet is carried to
                             the next-hop router over the IGP (an SRv6 /
                             tunnel underlay on the paper's WAN — transit
                             routers forward on the outer address and do
                             NOT re-look-up the inner destination, which
                             is what prevents default-vs-specific
                             deflection loops); the next IP lookup happens
                             at the next-hop router.  [trail] is the
                             reversed device path including the current
                             position. *)
                          let igp = model.Model.igp in
                          (* device indices; -1 outside the IGP, where a
                             walk has no first hop *)
                          let ix d =
                            Option.value (Isis.index igp d) ~default:(-1)
                          in
                          let dst = ix owner_dev in
                          let rec igp_walk cur frac trail depth =
                            if frac < 1e-9 then ()
                            else if depth > max_depth then
                              wk.wk_looped <- wk.wk_looped +. frac
                            else if cur = dst && cur >= 0 then
                              let in_iface =
                                match trail with
                                | _ :: prev :: _ ->
                                    in_iface_at model ~cur:prev ~next:owner_dev
                                | _ -> None
                              in
                              walk wk f ~dev:owner_dev ~in_iface ~frac
                                ~visited:(dev :: visited)
                                ~hops:(List.tl trail) ~depth:(depth + 1)
                            else
                              match
                                if cur < 0 || dst < 0 then []
                                else Isis.first_hops igp ~src:cur ~dst
                              with
                              | [] -> wk.wk_dropped <- wk.wk_dropped +. frac
                              | nexts ->
                                  let m = List.length nexts in
                                  let leg = frac /. float_of_int m in
                                  List.iter
                                    (fun next ->
                                      let name = Isis.name igp next in
                                      record_edge wk (List.hd trail) name leg;
                                      igp_walk next leg (name :: trail)
                                        (depth + 1))
                                    nexts
                          in
                          igp_walk (ix dev) sub_frac (dev :: hops) depth
                      | None ->
                          (* unmodeled next hop: if it sits on one of our
                             connected subnets (e.g. an external peering
                             /31), the flow exits the network here;
                             otherwise it is unroutable *)
                          let exits =
                            match cfg with
                            | Some cfg -> Types.on_connected_subnet cfg nh
                            | None -> false
                          in
                          if exits then record_path wk (dev :: hops) sub_frac
                          else wk.wk_dropped <- wk.wk_dropped +. sub_frac)))
            nhs

(** Walk one flow from its ingress device. *)
let walk_flow (model : Model.t) (fibs : fib) (f : Flow.t) : walk_result =
  let wk =
    {
      wk_model = model;
      wk_fibs = fibs;
      wk_paths = [];
      wk_npaths = 0;
      wk_edges = Hashtbl.create 16;
      wk_delivered = 0.;
      wk_dropped = 0.;
      wk_looped = 0.;
    }
  in
  walk wk f ~dev:f.Flow.ingress ~in_iface:None ~frac:1.0 ~visited:[] ~hops:[]
    ~depth:0;
  {
    w_paths = List.rev wk.wk_paths;
    w_edges = Hashtbl.fold (fun k v acc -> (k, v) :: acc) wk.wk_edges [];
    w_delivered = wk.wk_delivered;
    w_dropped = wk.wk_dropped;
    w_looped = wk.wk_looped;
  }

(* ------------------------------------------------------------------ *)
(* Flow equivalence classes                                            *)
(* ------------------------------------------------------------------ *)

(** EC key of a flow: ingress device, the LPM result on every device's
    FIB for the destination, and the flow's ACL/PBR match signature. *)
let flow_ec_key (model : Model.t) (fibs : fib) (f : Flow.t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b f.Flow.ingress;
  Buffer.add_char b '|';
  Hashtbl.iter
    (fun dev trie ->
      match Trie.Dual.longest_match trie f.Flow.dst with
      | Some (p, _) ->
          Buffer.add_string b dev;
          Buffer.add_char b '=';
          Buffer.add_string b (Prefix.to_string p);
          Buffer.add_char b ';'
      | None -> ())
    fibs;
  (* ACL / PBR signature *)
  Smap.iter
    (fun dev cfg ->
      let eval name =
        match acl_matches_flow cfg name f with
        | Some Types.Permit -> 'P'
        | Some Types.Deny -> 'D'
        | None -> '-'
      in
      List.iter
        (fun (p : Types.pbr_rule) ->
          Buffer.add_string b dev;
          Buffer.add_char b (eval p.Types.pbr_acl))
        cfg.Types.dc_pbr;
      List.iter
        (fun (i : Types.iface_config) ->
          match i.Types.if_acl_in with
          | Some acl -> Buffer.add_char b (eval acl)
          | None -> ())
        cfg.Types.dc_ifaces)
    model.Model.configs;
  Buffer.contents b

(* Hashtbl.iter order is unspecified but deterministic for a given table
   construction; keys only need to be consistent within one run. *)

(** Precomputed flow-EC keying context.

    The reference {!flow_ec_key} walks {e every} device's FIB per flow
    (O(devices) LPM walks) and re-resolves every ACL name per flow.  The
    prefixes installed on any FIB partition the address space: two
    destinations whose longest match in the {e union} of all installed
    prefixes is the same node match the identical chain of prefixes, and
    therefore have the same LPM on every individual device.  One LPM walk
    over a precomputed union trie thus keys the whole per-device LPM
    vector, making EC keying O(address bits) instead of O(devices).  The
    union partition is at least as fine as the per-device vector, so
    flows merged by this key are merged by the reference key too
    (soundness); the ACL/PBR signature is unchanged, evaluated over
    match contexts resolved once per run. *)
type ec_ctx = {
  ecx_union : unit Trie.Dual.t; (* every prefix installed on any FIB *)
  ecx_pbr : (string * Types.t * Types.acl) array;
      (* device, its config, the resolved PBR-steering ACL *)
  ecx_acl : (Types.t * Types.acl) array; (* config, resolved ingress ACL *)
}

(* The context over a given union trie; the ACL/PBR match contexts are
   resolved from [model]'s configs. *)
let ec_ctx_of_union (model : Model.t) (union : unit Trie.Dual.t) : ec_ctx =
  let pbr = ref [] and acl = ref [] in
  Smap.iter
    (fun dev cfg ->
      List.iter
        (fun (p : Types.pbr_rule) ->
          match Types.find_acl cfg p.Types.pbr_acl with
          | Some a -> pbr := (dev, cfg, a) :: !pbr
          | None -> ())
        cfg.Types.dc_pbr;
      List.iter
        (fun (i : Types.iface_config) ->
          match i.Types.if_acl_in with
          | Some name -> (
              match Types.find_acl cfg name with
              | Some a -> acl := (cfg, a) :: !acl
              | None -> ())
          | None -> ())
        cfg.Types.dc_ifaces)
    model.Model.configs;
  {
    ecx_union = union;
    ecx_pbr = Array.of_list (List.rev !pbr);
    ecx_acl = Array.of_list (List.rev !acl);
  }

let ec_ctx (model : Model.t) (fibs : fib) : ec_ctx =
  let b = Trie.Dual.Builder.create () in
  Hashtbl.iter
    (fun _dev trie ->
      ignore
        (Trie.Dual.fold (fun p _ () -> Trie.Dual.Builder.add b p ()) trie ()))
    fibs;
  ec_ctx_of_union model (Trie.Dual.Builder.build b)

let union_prefixes (ecx : ec_ctx) : Prefix.t list =
  List.map fst (Trie.Dual.to_list ecx.ecx_union)

(* ------------------------------------------------------------------ *)
(* Patching a base build                                               *)
(* ------------------------------------------------------------------ *)

type fib_patch = {
  fp_fibs : fib;
  fp_prefixes : int;
  fp_devices : int;
  fp_union : (Prefix.t * bool) list;
}

(** Patch [base] slot by slot: each [(device, prefix, rows)] slot's
    binding becomes [install rows] ([[]] removes it), through
    [Trie.Dual.update] on a copy of the table — clean slots and clean
    devices keep sharing the base tries.  A device whose trie empties is
    dropped (a from-scratch build never creates an empty trie); a device
    that gains its first route gets a new one.  Then every prefix whose
    binding changed somewhere is re-tested for union membership: it is
    in the union exactly when some device's trie binds it ([find_exact]
    over the devices), and the flips against [base_ecx]'s union are
    recorded for {!patch_ec_ctx}.  Cost: slots × trie depth plus changed
    prefixes × devices; nothing scales with the RIB. *)
let patch_fibs ~(base : fib) ~(base_ecx : ec_ctx)
    (slots : (string * Prefix.t * Route.t list) list) : fib_patch =
  let fibs = Hashtbl.copy base in
  let prefixes = Prefix.Tbl.create 16 in
  let devices = Hashtbl.create 16 and changed = Prefix.Tbl.create 16 in
  List.iter
    (fun (dev, p, rows) ->
      Prefix.Tbl.replace prefixes p ();
      let installed = install rows in
      let trie =
        Option.value (Hashtbl.find_opt fibs dev) ~default:Trie.Dual.empty
      in
      let old = Option.value (Trie.Dual.find_exact trie p) ~default:[] in
      if not (List.equal Route.equal old installed) then begin
        Hashtbl.replace devices dev ();
        Prefix.Tbl.replace changed p ();
        let trie =
          Trie.Dual.update trie p (fun _ ->
              match installed with [] -> None | l -> Some l)
        in
        if Trie.Dual.is_empty trie then Hashtbl.remove fibs dev
        else Hashtbl.replace fibs dev trie
      end)
    slots;
  let bound p =
    Hashtbl.fold
      (fun _ trie b -> b || Option.is_some (Trie.Dual.find_exact trie p))
      fibs false
  in
  let union =
    Prefix.Tbl.fold
      (fun p () acc ->
        let now = bound p in
        if now = Option.is_some (Trie.Dual.find_exact base_ecx.ecx_union p)
        then acc
        else (p, now) :: acc)
      changed []
  in
  {
    fp_fibs = fibs;
    fp_prefixes = Prefix.Tbl.length prefixes;
    fp_devices = Hashtbl.length devices;
    fp_union = union;
  }

(** The EC context over a patched FIB set: [base]'s union trie with the
    patch's membership flips applied, and the ACL/PBR contexts resolved
    from the (patched) [model]. *)
let patch_ec_ctx ~(base : ec_ctx) (model : Model.t) (fp : fib_patch) : ec_ctx
    =
  ec_ctx_of_union model
    (List.fold_left
       (fun u (p, bound) ->
         if bound then Trie.Dual.add u p () else Trie.Dual.remove u p)
       base.ecx_union fp.fp_union)

let eval_char (a : Types.acl) (f : Flow.t) =
  match
    Types.acl_eval a ~src:f.Flow.src ~dst:f.Flow.dst ~proto:f.Flow.ip_proto
      ~dport:f.Flow.dport
  with
  | Some Types.Permit -> 'P'
  | Some Types.Deny -> 'D'
  | None -> '-'

(** O(path) flow-EC key via the precomputed context: ingress, the union
    LPM of the destination, and the ACL/PBR match signature. *)
let flow_ec_key_pre (ecx : ec_ctx) (f : Flow.t) : string =
  let b = Buffer.create 64 in
  Buffer.add_string b f.Flow.ingress;
  Buffer.add_char b '|';
  (match Trie.Dual.longest_match ecx.ecx_union f.Flow.dst with
  | Some (p, ()) -> Buffer.add_string b (Prefix.to_string p)
  | None -> ());
  Buffer.add_char b '|';
  Array.iter
    (fun (dev, _cfg, a) ->
      Buffer.add_string b dev;
      Buffer.add_char b (eval_char a f))
    ecx.ecx_pbr;
  Array.iter (fun (_cfg, a) -> Buffer.add_char b (eval_char a f)) ecx.ecx_acl;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Top-level run                                                       *)
(* ------------------------------------------------------------------ *)

type flow_result = {
  f_flow : Flow.t;
  f_paths : path list;
  f_delivered : float;
  f_dropped : float;
  f_looped : float;
}

type result = {
  flow_results : flow_result list;
  link_load : (string * string, float) Hashtbl.t; (* bits per second *)
  flow_count : int; (* total flow population *)
  ec_count : int;
  compression : float;
}

let ev_result (tm : Telemetry.t) (r : result) =
  if Telemetry.enabled tm then begin
    Telemetry.observe tm ~labels:[ ("phase", "traffic") ]
      "hoyan_ec_compression_ratio" r.compression;
    Telemetry.event tm "traffic_sim.done"
      [
        ("flows", Journal.I (List.length r.flow_results));
        ("ecs", Journal.I r.ec_count);
        ("compression", Journal.F r.compression);
        ("links_loaded", Journal.I (Hashtbl.length r.link_load));
      ]
  end

let run ?tm ?(use_ecs = true) ?fibs ?ecx (model : Model.t)
    ~(rib : Rib.t) ~(flows : Flow.t list) () : result =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let fibs =
    match fibs with
    | Some f -> f
    | None ->
        Telemetry.with_span tm
          ~args:[ ("rib_rows", string_of_int (Rib.length rib)) ]
          "traffic.build_fibs"
          (fun () -> build_fibs rib)
  in
  let link_load : (string * string, float) Hashtbl.t = Hashtbl.create 1024 in
  let add_load edges volume =
    List.iter
      (fun (key, frac) ->
        let cur = Option.value (Hashtbl.find_opt link_load key) ~default:0. in
        Hashtbl.replace link_load key (cur +. (frac *. volume)))
      edges
  in
  let total_population =
    List.fold_left (fun n (f : Flow.t) -> n + f.Flow.population) 0 flows
  in
  if not use_ecs then begin
    let flow_results =
      List.map
        (fun (f : Flow.t) ->
          let w = walk_flow model fibs f in
          add_load w.w_edges (f.Flow.volume *. float_of_int f.Flow.population);
          {
            f_flow = f;
            f_paths = w.w_paths;
            f_delivered = w.w_delivered;
            f_dropped = w.w_dropped;
            f_looped = w.w_looped;
          })
        flows
    in
    let res =
      {
        flow_results;
        link_load;
        flow_count = total_population;
        ec_count = List.length flows;
        compression = 1.0;
      }
    in
    ev_result tm res;
    res
  end
  else begin
    (* group flows into ECs (one union-trie LPM per flow, not one walk
       per device; see {!ec_ctx}) *)
    let ecx = match ecx with Some e -> e | None -> ec_ctx model fibs in
    let groups : (string, Flow.t list) Hashtbl.t = Hashtbl.create 1024 in
    let order = ref [] in
    List.iter
      (fun f ->
        let k = flow_ec_key_pre ecx f in
        match Hashtbl.find_opt groups k with
        | Some fs -> Hashtbl.replace groups k (f :: fs)
        | None ->
            Hashtbl.add groups k [ f ];
            order := k :: !order)
      flows;
    let flow_results =
      List.concat_map
        (fun k ->
          let members = List.rev (Hashtbl.find groups k) in
          let rep = List.hd members in
          let w = walk_flow model fibs rep in
          List.map
            (fun (f : Flow.t) ->
              add_load w.w_edges
                (f.Flow.volume *. float_of_int f.Flow.population);
              {
                f_flow = f;
                f_paths = w.w_paths;
                f_delivered = w.w_delivered;
                f_dropped = w.w_dropped;
                f_looped = w.w_looped;
              })
            members)
        (List.rev !order)
    in
    let ec_count = Hashtbl.length groups in
    let res =
      {
        flow_results;
        link_load;
        flow_count = total_population;
        ec_count;
        compression =
          (if ec_count = 0 then 1.0
           else float_of_int (List.length flows) /. float_of_int ec_count);
      }
    in
    ev_result tm res;
    res
  end

(** Utilization of each directed link: load / bandwidth. *)
let utilizations (model : Model.t) (res : result) :
    ((string * string) * float * float) list =
  Hashtbl.fold
    (fun (src, dst) load acc ->
      let bw =
        match Topology.edge_between model.Model.topo src dst with
        | Some e -> e.Topology.bandwidth
        | None -> infinity
      in
      ((src, dst), load, load /. bw) :: acc)
    res.link_load []
