(** Incremental delta simulation: dirty-region fixpoint re-runs spliced
    into converged snapshots.  See the interface for the soundness
    contract; DESIGN.md §2.10 for the design notes.

    Why a restricted fixpoint is exact: every stage of the BGP pipeline
    — ingress (AS-loop check, import policy), selection, export (split
    horizon, community gates, RR rules, export policy) and delivery —
    is a function of a single (vrf, prefix) slot.  The only cross-prefix
    coupling is aggregation: an aggregate's row is computed from its
    component rows, and a component's presence can flip an aggregate.
    So a fixpoint restricted to a prefix set S converges exactly the
    S-restriction of the unrestricted fixpoint whenever S is closed
    under aggregate contribution in both directions.  [Route_sim.run
    ~only] implements the restriction; this module owns the closure, the
    splice and the oracle. *)

open Hoyan_net
module Smap = Map.Make (String)
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Lint = Hoyan_analysis.Lint
module Differential = Hoyan_analysis.Differential
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

type ctx = {
  cx_model : Model.t;
  cx_input_routes : Route.t list;
  cx_flows : Flow.t list;
  cx_rib : Route.t list; (* the converged base global RIB, as captured *)
  cx_key : Rib.Key.ctx; (* packed-key universe of the base BGP rows *)
  cx_bgp : Rib.Arena.t; (* base RIB minus base local tables, canonical *)
  cx_fibs : Traffic_sim.fib;
  cx_ecx : Traffic_sim.ec_ctx;
  cx_universe : Prefix.t list; (* every prefix a base BGP row can have *)
  cx_degraded : string option;
      (* a base row's prefix escaped the enumerable universe: the dirty
         set cannot be trusted, every plan falls back to a full run *)
  mutable cx_simulates : int;
  mutable cx_fallbacks : int;
}

let base_model cx = cx.cx_model
let base_rib cx = cx.cx_rib
let base_fibs cx = cx.cx_fibs
let base_ec_ctx cx = cx.cx_ecx
let counters cx = (cx.cx_simulates, cx.cx_fallbacks)

(* ------------------------------------------------------------------ *)
(* The prefix universe and the aggregate closure                       *)
(* ------------------------------------------------------------------ *)

(* Every prefix a BGP RIB row of [model] can possibly carry, beyond the
   injected inputs: network statements, redistributable local-table rows
   (statics/connected/IGP), and configured aggregates.  Leaking
   preserves prefixes, so this is exhaustive. *)
let model_prefixes (model : Model.t) : Prefix.t list =
  let acc = ref [] in
  Smap.iter
    (fun _ (cfg : Types.t) ->
      List.iter
        (fun (p, _vrf) -> acc := p :: !acc)
        cfg.Types.dc_bgp.Types.bgp_networks;
      List.iter
        (fun (ag : Types.aggregate) -> acc := ag.Types.ag_prefix :: !acc)
        cfg.Types.dc_bgp.Types.bgp_aggregates)
    model.Model.configs;
  Smap.iter
    (fun _ rows ->
      List.iter (fun (r : Route.t) -> acc := r.Route.prefix :: !acc) rows)
    model.Model.local_tables;
  !acc

let aggregate_prefixes (model : Model.t) : Prefix.t list =
  let acc = ref [] in
  Smap.iter
    (fun _ (cfg : Types.t) ->
      List.iter
        (fun (ag : Types.aggregate) -> acc := ag.Types.ag_prefix :: !acc)
        cfg.Types.dc_bgp.Types.bgp_aggregates)
    model.Model.configs;
  List.sort_uniq Prefix.compare !acc

(* Close a dirty prefix set under aggregate contribution over
   [universe]: a dirty component dirties its aggregates (their
   attributes are computed from component rows), and a dirty aggregate
   pulls in every candidate component (the restricted run must see them
   to originate it correctly). *)
let close_under_aggregates ~(aggs : Prefix.t list)
    ~(universe : Prefix.t list) (dirty : unit Prefix.Tbl.t) : unit =
  let mem p = Prefix.Tbl.mem dirty p in
  let add p =
    if mem p then false
    else begin
      Prefix.Tbl.replace dirty p ();
      true
    end
  in
  (* each aggregate with its candidate components, found once *)
  let groups =
    List.map
      (fun ag ->
        ( ag,
          List.filter
            (fun u -> (not (Prefix.equal u ag)) && Prefix.subsumes ag u)
            universe ))
      aggs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (ag, components) ->
        if mem ag then
          List.iter (fun u -> if add u then changed := true) components
        else if List.exists mem components then begin
          ignore (add ag);
          changed := true
        end)
      groups
  done

(* ------------------------------------------------------------------ *)
(* Context capture                                                     *)
(* ------------------------------------------------------------------ *)

let local_rows (model : Model.t) : Route.t list =
  Smap.fold
    (fun _ rs acc -> List.rev_append rs acc)
    model.Model.local_tables []

let capture ?tm ~(model : Model.t) ~(input_routes : Route.t list)
    ~(flows : Flow.t list) ~(rib : Route.t list) () : ctx =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm "inc.capture" (fun () ->
      let bgp_rows = Rib.Global.diff rib (local_rows model) in
      let key = Rib.Key.of_routes bgp_rows in
      let bgp = Rib.Arena.of_routes key bgp_rows in
      let universe =
        List.sort_uniq Prefix.compare
          (List.map (fun (r : Route.t) -> r.Route.prefix) input_routes
          @ model_prefixes model)
      in
      let in_universe =
        let tbl = Prefix.Tbl.create (List.length universe * 2) in
        List.iter (fun p -> Prefix.Tbl.replace tbl p ()) universe;
        Prefix.Tbl.mem tbl
      in
      let degraded =
        List.find_map
          (fun (r : Route.t) ->
            if in_universe r.Route.prefix then None
            else
              Some
                (Printf.sprintf "base row prefix %s outside universe"
                   (Prefix.to_string r.Route.prefix)))
          bgp_rows
      in
      let fibs = Traffic_sim.build_fibs rib in
      let ecx = Traffic_sim.ec_ctx model fibs in
      if Telemetry.enabled tm then
        Telemetry.event tm "inc.capture"
          [
            ("rib_rows", Journal.I (List.length rib));
            ("bgp_rows", Journal.I (Rib.Arena.cardinal bgp));
            ("universe", Journal.I (List.length universe));
            ("degraded", Journal.B (Option.is_some degraded));
          ];
      {
        cx_model = model;
        cx_input_routes = input_routes;
        cx_flows = flows;
        cx_rib = rib;
        cx_key = key;
        cx_bgp = bgp;
        cx_fibs = fibs;
        cx_ecx = ecx;
        cx_universe = universe;
        cx_degraded = degraded;
        cx_simulates = 0;
        cx_fallbacks = 0;
      })

(* ------------------------------------------------------------------ *)
(* Simulate: dirty-region delta run + arena splice                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_class : Differential.classification;
  st_full_fallback : bool;
  st_fallback_reason : string option;
  st_dirty_prefixes : int;
  st_dirty_devices : int;
  st_reused_rows : int;
  st_delta_rows : int;
}

type sim = {
  s_plan : Cp.t;
  s_model : Model.t;
  s_reports : Cp.apply_report list;
  s_diff : Differential.diff;
  s_rib : Route.t list;
  s_dirty : Prefix.t list;
  s_stats : stats;
  s_fibs : Traffic_sim.fib Lazy.t;
  s_ecx : Traffic_sim.ec_ctx Lazy.t;
  s_traffic : Traffic_sim.result Lazy.t;
}

let compute_diff ?tm (cx : ctx) (plan : Cp.t) : Differential.diff =
  let m = cx.cx_model in
  Differential.diff ?tm
    (Lint.make ~topo:m.Model.topo ~render:false m.Model.configs)
    plan

(* Devices whose local tables differ between base and patched model:
   their FIBs can change even without a BGP row change. *)
let changed_local_devices (base : Model.t) (patched : Model.t) : string list =
  let devs = ref [] in
  let keys m =
    Smap.fold (fun k _ acc -> k :: acc) m.Model.local_tables []
  in
  List.iter
    (fun dev ->
      let rows m =
        Option.value (Smap.find_opt dev m.Model.local_tables) ~default:[]
      in
      if not (List.equal Route.equal (rows base) (rows patched)) then
        devs := dev :: !devs)
    (List.sort_uniq String.compare (keys base @ keys patched));
  !devs

let make_traffic tm (cx : ctx) (model : Model.t) rib fibs ecx =
  lazy
    (Telemetry.with_span tm "inc.traffic" (fun () ->
         Traffic_sim.run ~tm ~fibs:(Lazy.force fibs) ~ecx:(Lazy.force ecx)
           model ~rib ~flows:cx.cx_flows ()))

(* The full-run escape hatch: canonicalized so cached artifacts and the
   oracle compare the same representation either way. *)
let full_fallback tm (cx : ctx) (d : Differential.diff) (plan : Cp.t)
    ~(patched : Model.t) ~(reports : Cp.apply_report list) ~reason : sim =
  cx.cx_fallbacks <- cx.cx_fallbacks + 1;
  Telemetry.count tm "hoyan_inc_fallback_total" 1;
  let inputs = Differential.patched_routes plan cx.cx_input_routes in
  let full =
    Telemetry.with_span tm "inc.full_fallback" (fun () ->
        Route_sim.run ~tm patched ~input_routes:inputs ())
  in
  let rib = List.sort_uniq Route.compare full.Route_sim.rib in
  let fibs = lazy (Traffic_sim.build_fibs rib) in
  let ecx = lazy (Traffic_sim.ec_ctx patched (Lazy.force fibs)) in
  {
    s_plan = plan;
    s_model = patched;
    s_reports = reports;
    s_diff = d;
    s_rib = rib;
    s_dirty = [];
    s_stats =
      {
        st_class = d.Differential.df_class;
        st_full_fallback = true;
        st_fallback_reason = Some reason;
        st_dirty_prefixes = 0;
        st_dirty_devices = 0;
        st_reused_rows = 0;
        st_delta_rows = List.length rib;
      };
    s_fibs = fibs;
    s_ecx = ecx;
    s_traffic = make_traffic tm cx patched rib fibs ecx;
  }

let simulate ?tm ?d ?prune_dirty (cx : ctx) (plan : Cp.t) : sim =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  cx.cx_simulates <- cx.cx_simulates + 1;
  Telemetry.count tm "hoyan_inc_simulate_total" 1;
  Telemetry.with_span tm "inc.simulate" (fun () ->
      let d = match d with Some d -> d | None -> compute_diff ~tm cx plan in
      let patched, reports = Model.apply_change_plan cx.cx_model plan in
      match
        if d.Differential.df_topo_dirty then
          Some "topology ops dirty an unenumerable prefix set"
        else cx.cx_degraded
      with
      | Some reason -> full_fallback tm cx d plan ~patched ~reports ~reason
      | None ->
          let plan_prefixes =
            plan.Cp.cp_withdraw
            @ List.map
                (fun (r : Route.t) -> r.Route.prefix)
                plan.Cp.cp_new_routes
          in
          let universe =
            List.sort_uniq Prefix.compare
              (cx.cx_universe @ model_prefixes patched @ plan_prefixes)
          in
          let dirty_tbl = Prefix.Tbl.create 64 in
          List.iter
            (fun p ->
              if
                Differential.prefix_affected ~tm d
                  ~input_routes:cx.cx_input_routes p
              then Prefix.Tbl.replace dirty_tbl p ())
            universe;
          let aggs =
            List.sort_uniq Prefix.compare
              (aggregate_prefixes cx.cx_model @ aggregate_prefixes patched)
          in
          close_under_aggregates ~aggs ~universe dirty_tbl;
          (match prune_dirty with
          | None -> ()
          | Some drop ->
              List.iter
                (fun p -> if drop p then Prefix.Tbl.remove dirty_tbl p)
                universe);
          let is_dirty = Prefix.Tbl.mem dirty_tbl in
          let n_dirty = Prefix.Tbl.length dirty_tbl in
          (* the restricted re-convergence: from-scratch fixpoint over
             only the dirty prefixes (base adj-RIB state for them is
             invalid by definition; clean prefixes never enter) *)
          let delta_rows =
            if n_dirty = 0 then []
            else
              Telemetry.with_span tm "inc.delta_fixpoint" (fun () ->
                  (Route_sim.run ~tm ~include_locals:false ~only:is_dirty
                     patched
                     ~input_routes:
                       (Differential.patched_routes plan cx.cx_input_routes)
                     ())
                    .Route_sim.rib)
          in
          (* dirty devices: whose rows were dropped, whose rows the delta
             produced, or whose local tables changed *)
          let dirty_devs = Hashtbl.create 32 in
          let mark dev = Hashtbl.replace dirty_devs dev () in
          (* splice: cut the dirty region out of the base arena — one
             byte test per base row on its key's prefix id, then work
             proportional to the dropped rows — and merge in the delta
             rows and the patched local tables *)
          let mask = Bytes.make cx.cx_key.Rib.Key.pfx_radix '\000' in
          Prefix.Tbl.iter
            (fun p () ->
              match Rib.Key.prefix_id cx.cx_key p with
              | Some i -> Bytes.set mask i '\001'
              | None -> ())
            dirty_tbl;
          let clean =
            Rib.Arena.drop_prefixes cx.cx_key ~mask ~dirty:is_dirty
              ~on_drop:mark cx.cx_bgp
          in
          let delta = Rib.Arena.of_routes cx.cx_key delta_rows in
          let locals = Rib.Arena.of_routes cx.cx_key (local_rows patched) in
          let rib =
            Telemetry.with_span tm "inc.splice" (fun () ->
                Rib.Arena.merge [ clean; delta; locals ])
          in
          List.iter (fun (r : Route.t) -> mark r.Route.device) delta_rows;
          List.iter mark (changed_local_devices cx.cx_model patched);
          let dirty_dev d = Hashtbl.mem dirty_devs d in
          let stats =
            {
              st_class = d.Differential.df_class;
              st_full_fallback = false;
              st_fallback_reason = None;
              st_dirty_prefixes = n_dirty;
              st_dirty_devices = Hashtbl.length dirty_devs;
              st_reused_rows = Rib.Arena.cardinal clean;
              st_delta_rows = Rib.Arena.cardinal delta;
            }
          in
          if Telemetry.enabled tm then
            Telemetry.event tm "inc.simulate"
              [
                ( "class",
                  Journal.S
                    (Differential.classification_to_string
                       d.Differential.df_class) );
                ("dirty_prefixes", Journal.I stats.st_dirty_prefixes);
                ("dirty_devices", Journal.I stats.st_dirty_devices);
                ("reused_rows", Journal.I stats.st_reused_rows);
                ("delta_rows", Journal.I stats.st_delta_rows);
              ];
          let fibs =
            lazy
              (Telemetry.with_span tm "inc.rebuild_fibs" (fun () ->
                   Traffic_sim.rebuild_fibs ~base:cx.cx_fibs ~dirty:dirty_dev
                     rib))
          in
          let ecx =
            lazy (Traffic_sim.ec_ctx patched (Lazy.force fibs))
          in
          {
            s_plan = plan;
            s_model = patched;
            s_reports = reports;
            s_diff = d;
            s_rib = rib;
            s_dirty =
              List.sort Prefix.compare
                (Prefix.Tbl.fold (fun p () acc -> p :: acc) dirty_tbl []);
            s_stats = stats;
            s_fibs = fibs;
            s_ecx = ecx;
            s_traffic = make_traffic tm cx patched rib fibs ecx;
          })

(* ------------------------------------------------------------------ *)
(* Footprint restriction for failure scenarios                         *)
(* ------------------------------------------------------------------ *)

let scenario_only (cx : ctx) ~(prefixes : Prefix.t list) :
    Prefix.t -> bool =
  let dirty = Prefix.Tbl.create 16 in
  List.iter (fun p -> Prefix.Tbl.replace dirty p ()) prefixes;
  close_under_aggregates
    ~aggs:(aggregate_prefixes cx.cx_model)
    ~universe:cx.cx_universe dirty;
  Prefix.Tbl.mem dirty

(* ------------------------------------------------------------------ *)
(* The byte-identity oracle                                            *)
(* ------------------------------------------------------------------ *)

type check = {
  ck_ok : bool;
  ck_rib_ok : bool;
  ck_traffic_ok : bool;
  ck_stats : stats;
  ck_missing : Route.t list;
  ck_extra : Route.t list;
}

let traffic_identical (a : Traffic_sim.result) (b : Traffic_sim.result) :
    bool =
  let loads (r : Traffic_sim.result) =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.Traffic_sim.link_load []
    |> List.sort compare
  in
  loads a = loads b
  && List.length a.Traffic_sim.flow_results
     = List.length b.Traffic_sim.flow_results
  && List.for_all2
       (fun (x : Traffic_sim.flow_result) (y : Traffic_sim.flow_result) ->
         Flow.equal x.Traffic_sim.f_flow y.Traffic_sim.f_flow
         && x.Traffic_sim.f_delivered = y.Traffic_sim.f_delivered
         && x.Traffic_sim.f_dropped = y.Traffic_sim.f_dropped
         && x.Traffic_sim.f_looped = y.Traffic_sim.f_looped)
       a.Traffic_sim.flow_results b.Traffic_sim.flow_results

let selfcheck ?tm ?(traffic = true) ?prune_dirty (cx : ctx) (plan : Cp.t) :
    check =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let sim = simulate ~tm ?prune_dirty cx plan in
  (* the independent witness: full from-scratch patched simulation *)
  let patched, _ = Model.apply_change_plan cx.cx_model plan in
  let inputs = Differential.patched_routes plan cx.cx_input_routes in
  let full =
    List.sort_uniq Route.compare
      (Route_sim.run ~tm patched ~input_routes:inputs ()).Route_sim.rib
  in
  let rib_ok = List.equal Route.equal full sim.s_rib in
  let missing = if rib_ok then [] else Rib.Global.diff full sim.s_rib in
  let extra = if rib_ok then [] else Rib.Global.diff sim.s_rib full in
  let traffic_ok =
    if not traffic then true
    else
      let full_traffic =
        Traffic_sim.run ~tm patched ~rib:full ~flows:cx.cx_flows ()
      in
      traffic_identical full_traffic (Lazy.force sim.s_traffic)
  in
  if Telemetry.enabled tm then
    Telemetry.event tm "inc.selfcheck"
      [
        ("rib_ok", Journal.B rib_ok);
        ("traffic_ok", Journal.B traffic_ok);
        ("missing", Journal.I (List.length missing));
        ("extra", Journal.I (List.length extra));
      ];
  {
    ck_ok = rib_ok && traffic_ok;
    ck_rib_ok = rib_ok;
    ck_traffic_ok = traffic_ok;
    ck_stats = sim.s_stats;
    ck_missing = missing;
    ck_extra = extra;
  }
