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
    ~only] implements the restriction, [Semantic.aggregate_closure] the
    closure and [Differential.dirty_prefixes] the dirty set; this module
    owns the splice and the oracle. *)

open Hoyan_net
module Smap = Map.Make (String)
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Lint = Hoyan_analysis.Lint
module Differential = Hoyan_analysis.Differential
module Semantic = Hoyan_analysis.Semantic
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

(* ------------------------------------------------------------------ *)
(* The chunk splice                                                    *)
(* ------------------------------------------------------------------ *)

module Splice = struct
  type base = {
    sb_rib : Rib.t;
    sb_bgp : Rib.t; (* the base RIB minus the base local tables *)
    sb_holders : (string * string) list Prefix.Tbl.t;
        (* each prefix's (device, vrf) slots holding a base BGP row *)
    sb_devices : int;
  }

  let capture ~(rib : Rib.t) ~(locals : Rib.t) : base =
    let bgp = Rib.diff rib locals in
    (* rows come in slot order, so a slot is new to its prefix's list
       unless it heads it *)
    let holders = Prefix.Tbl.create 4096 in
    Rib.iter
      (fun (r : Route.t) ->
        let p = r.Route.prefix and dev = r.Route.device and vrf = r.Route.vrf in
        match Prefix.Tbl.find_opt holders p with
        | Some ((d, v) :: _) when String.equal d dev && String.equal v vrf -> ()
        | Some ss -> Prefix.Tbl.replace holders p ((dev, vrf) :: ss)
        | None -> Prefix.Tbl.add holders p [ (dev, vrf) ])
      bgp;
    {
      sb_rib = rib;
      sb_bgp = bgp;
      sb_holders = holders;
      sb_devices = List.length (Rib.by_device rib);
    }

  type stats = {
    sp_rebuilt : int;
    sp_shared : int;
    sp_copied : int;
    sp_reused : int;
  }

  let run (b : base) ~(dirty : unit Prefix.Tbl.t) ~(delta : Rib.t)
      ~(changed : string list) ~(locals : string -> Route.t list) :
      Rib.t * stats =
    let is_dirty = Prefix.Tbl.mem dirty in
    (* each touched device's slots to rewrite: its base BGP slots on a
       dirty prefix, its delta slots and, with a new local table, the
       slots of its base and new local rows *)
    let slots = Hashtbl.create 32 in
    let add dev key =
      Hashtbl.replace slots dev
        (key :: Option.value (Hashtbl.find_opt slots dev) ~default:[])
    in
    let add_row (r : Route.t) =
      add r.Route.device (r.Route.vrf, r.Route.prefix)
    in
    Prefix.Tbl.iter
      (fun p () ->
        List.iter
          (fun (dev, vrf) -> add dev (vrf, p))
          (Option.value (Prefix.Tbl.find_opt b.sb_holders p) ~default:[]))
      dirty;
    Rib.iter add_row delta;
    let tables =
      List.map
        (fun dev ->
          let base_locals =
            Rib.diff (Rib.device b.sb_rib dev) (Rib.device b.sb_bgp dev)
          and fresh = Rib.of_routes (locals dev) in
          Rib.iter add_row base_locals;
          Rib.iter add_row fresh;
          if not (Hashtbl.mem slots dev) then Hashtbl.add slots dev [];
          (dev, (base_locals, fresh)))
        changed
    in
    let dropped = ref 0 and copied = ref 0 and rebuilt_base = ref 0 in
    (* the base chunk with each listed slot's dropped rows (dirty BGP
       rows, replaced local rows) swapped for its gained ones (delta
       rows, new local rows) *)
    let rebuild dev keys =
      let slot rib ~vrf ~prefix = Rib.slot rib ~device:dev ~vrf ~prefix in
      let bgp = Rib.device b.sb_bgp dev and delta = Rib.device delta dev in
      let old_locals, new_locals =
        Option.value (List.assoc_opt dev tables) ~default:(Rib.empty, Rib.empty)
      in
      Rib.patch_slots b.sb_rib dev
        (List.map
           (fun (vrf, prefix) ->
             let stale = if is_dirty prefix then slot bgp ~vrf ~prefix else [] in
             dropped := !dropped + List.length stale;
             let gone = stale @ slot old_locals ~vrf ~prefix in
             ( (vrf, prefix),
               List.filter
                 (fun r -> not (List.exists (Route.equal r) gone))
                 (slot b.sb_rib ~vrf ~prefix)
               @ slot delta ~vrf ~prefix
               @ slot new_locals ~vrf ~prefix ))
           (List.sort_uniq
              (fun (v, p) (w, q) ->
                match String.compare v w with 0 -> Prefix.compare p q | c -> c)
              keys))
    in
    let chunks =
      Hashtbl.fold
        (fun dev keys acc ->
          let chunk = rebuild dev keys in
          copied := !copied + Rib.length chunk;
          if not (Rib.is_empty (Rib.device b.sb_rib dev)) then
            incr rebuilt_base;
          (dev, chunk) :: acc)
        slots []
    in
    ( Rib.replace b.sb_rib chunks,
      {
        sp_rebuilt = List.length chunks;
        sp_shared = b.sb_devices - !rebuilt_base;
        sp_copied = !copied;
        sp_reused = Rib.length b.sb_bgp - !dropped;
      } )
end

type ctx = {
  cx_model : Model.t;
  cx_input_routes : Route.t list;
  cx_flows : Flow.t list;
  cx_splice : Splice.base; (* the converged base global RIB, indexed *)
  cx_fibs : Traffic_sim.fib;
  cx_ecx : Traffic_sim.ec_ctx;
  cx_degraded : string option;
      (* a base row's prefix escaped the enumerable universe: the dirty
         set cannot be trusted, every plan falls back to a full run *)
  mutable cx_simulates : int;
  mutable cx_fallbacks : int;
}

let base_model cx = cx.cx_model
let base_rib cx = cx.cx_splice.Splice.sb_rib
let base_fibs cx = cx.cx_fibs
let base_ec_ctx cx = cx.cx_ecx
let counters cx = (cx.cx_simulates, cx.cx_fallbacks)

let base_input cx =
  Lint.make ~topo:cx.cx_model.Model.topo cx.cx_model.Model.configs

let scenario_only (cx : ctx) ~(prefixes : Prefix.t list) : Prefix.t -> bool =
  let set =
    Prefix.Set.of_list
      (Semantic.footprint_closure (base_input cx)
         ~input_routes:cx.cx_input_routes prefixes)
  in
  fun p -> Prefix.Set.mem p set

(* ------------------------------------------------------------------ *)
(* Context capture                                                     *)
(* ------------------------------------------------------------------ *)

let capture ?tm ~(model : Model.t) ~(input_routes : Route.t list)
    ~(flows : Flow.t list) ~(rib : Rib.t) () : ctx =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm "inc.capture" (fun () ->
      let splice = Splice.capture ~rib ~locals:(Model.local_rib model) in
      let bgp = splice.Splice.sb_bgp in
      let universe =
        Semantic.universe
          (Lint.make ~topo:model.Model.topo model.Model.configs)
          ~input_routes
      in
      let in_universe = Prefix.Set.of_list universe in
      let degraded =
        Seq.find_map
          (fun (r : Route.t) ->
            if Prefix.Set.mem r.Route.prefix in_universe then None
            else
              Some
                (Printf.sprintf "base row prefix %s outside universe"
                   (Prefix.to_string r.Route.prefix)))
          (Rib.to_seq bgp)
      in
      let fibs = Traffic_sim.build_fibs rib in
      let ecx = Traffic_sim.ec_ctx model fibs in
      if Telemetry.enabled tm then
        Telemetry.event tm "inc.capture"
          [
            ("rib_rows", Journal.I (Rib.length rib));
            ("bgp_rows", Journal.I (Rib.length bgp));
            ("universe", Journal.I (List.length universe));
            ("degraded", Journal.B (Option.is_some degraded));
          ];
      {
        cx_model = model;
        cx_input_routes = input_routes;
        cx_flows = flows;
        cx_splice = splice;
        cx_fibs = fibs;
        cx_ecx = ecx;
        cx_degraded = degraded;
        cx_simulates = 0;
        cx_fallbacks = 0;
      })

(* ------------------------------------------------------------------ *)
(* Simulate: dirty-region delta run + per-device chunk splice          *)
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
  s_model : Model.t;
  s_rib : Rib.t;
  s_dirty : Prefix.t list;
  s_stats : stats;
  s_fibs : Traffic_sim.fib Lazy.t;
  s_ecx : Traffic_sim.ec_ctx Lazy.t;
  s_traffic : Traffic_sim.result Lazy.t;
}

let compute_diff ?tm (cx : ctx) (plan : Cp.t) : Differential.diff =
  Differential.diff ?tm (base_input cx) plan

(* Devices whose local tables differ between base and patched model
   (their FIBs can change even without a BGP row change), each with the
   default-VRF prefixes of the rows in the symmetric difference — the
   only slots on it the change can rebind. *)
let changed_local_devices (base : Model.t) (patched : Model.t) :
    (string * Prefix.t list) list =
  let keys m =
    Smap.fold (fun k _ acc -> k :: acc) m.Model.local_tables []
  in
  List.filter_map
    (fun dev ->
      let rows m =
        Option.value (Smap.find_opt dev m.Model.local_tables) ~default:[]
      in
      let b = rows base and p = rows patched in
      if List.equal Route.equal b p then None
      else
        Some
          ( dev,
            let b = Rib.of_routes b and p = Rib.of_routes p in
            Rib.to_list (Rib.diff b p) @ Rib.to_list (Rib.diff p b)
            |> List.filter_map (fun (r : Route.t) ->
                   if String.equal r.Route.vrf Route.default_vrf then
                     Some r.Route.prefix
                   else None)
            |> List.sort_uniq Prefix.compare ))
    (List.sort_uniq String.compare (keys base @ keys patched))

(* The FIB-dirty slots of a splice with their post-change default-VRF
   rows, gathered without scanning the spliced RIB.  A re-converged
   prefix is dirty on every device (the base FIB devices and the
   patched model's): its rows are the delta rows plus the patched local
   rows.  A local-only slot ([local_slots], a device's local-table
   symmetric difference off the dirty set) carries its clean base BGP
   rows plus the patched local rows. *)
let fib_slots (cx : ctx) (patched : Model.t) ~(dirty : unit Prefix.Tbl.t)
    ~(delta_rows : Rib.t)
    ~(local_slots : (string * Prefix.t * Route.t list) list) :
    (string * Prefix.t * Route.t list) list =
  let slots : (string * Prefix.t, Route.t list) Hashtbl.t =
    Hashtbl.create 256
  in
  let local_devs = Hashtbl.create 16 in
  List.iter
    (fun (dev, p, rows) ->
      Hashtbl.replace local_devs dev ();
      Hashtbl.replace slots (dev, p) rows)
    local_slots;
  let devices =
    Hashtbl.fold (fun dev _ acc -> dev :: acc) cx.cx_fibs []
    @ Smap.fold (fun dev _ acc -> dev :: acc) patched.Model.configs []
    |> List.sort_uniq String.compare
  in
  Prefix.Tbl.iter
    (fun p () ->
      List.iter (fun dev -> Hashtbl.replace slots (dev, p) []) devices)
    dirty;
  let add (r : Route.t) =
    if String.equal r.Route.vrf Route.default_vrf then
      let key = (r.Route.device, r.Route.prefix) in
      match Hashtbl.find_opt slots key with
      | Some rows -> Hashtbl.replace slots key (r :: rows)
      | None -> ()
  in
  Rib.iter add delta_rows;
  Smap.iter
    (fun dev rows ->
      if Hashtbl.mem local_devs dev then List.iter add rows
      else
        List.iter
          (fun (r : Route.t) ->
            if Prefix.Tbl.mem dirty r.Route.prefix then add r)
          rows)
    patched.Model.local_tables;
  Hashtbl.fold
    (fun (dev, p) rows acc ->
      (dev, p, List.sort_uniq Route.compare rows) :: acc)
    slots []

let make_traffic tm (cx : ctx) (model : Model.t) rib fibs ecx =
  lazy
    (let fibs = Lazy.force fibs and ecx = Lazy.force ecx in
     Telemetry.with_span tm "inc.traffic" (fun () ->
         Traffic_sim.run ~tm ~fibs ~ecx model ~rib ~flows:cx.cx_flows ()))

(* The full-run escape hatch. *)
let full_fallback tm (cx : ctx) (d : Differential.diff) ~inputs
    ~(patched : Model.t) ~reason : sim =
  cx.cx_fallbacks <- cx.cx_fallbacks + 1;
  Telemetry.count tm "hoyan_inc_fallback_total" 1;
  let full =
    Telemetry.with_span tm "inc.full_fallback" (fun () ->
        Route_sim.run ~tm patched ~input_routes:inputs ())
  in
  let rib = full.Route_sim.rib in
  let fibs = lazy (Traffic_sim.build_fibs rib) in
  let ecx =
    lazy
      (let fibs = Lazy.force fibs in
       Telemetry.with_span tm "inc.ec_ctx" (fun () ->
           Traffic_sim.ec_ctx patched fibs))
  in
  {
    s_model = patched;
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
        st_delta_rows = Rib.length rib;
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
      (* the plan applied once: the dirty set and the spliced model both
         come from [d]'s patched input *)
      let patched =
        let p = d.Differential.df_patched_input in
        Model.patch cx.cx_model ?topo:p.Lint.li_topo p.Lint.li_configs
      in
      let inputs = Differential.patched_routes plan cx.cx_input_routes in
      match
        if d.Differential.df_topo_dirty then
          Some "topology ops dirty an unenumerable prefix set"
        else cx.cx_degraded
      with
      | Some reason -> full_fallback tm cx d ~inputs ~patched ~reason
      | None ->
          let dirty =
            Differential.dirty_prefixes ~tm d ~input_routes:cx.cx_input_routes
          in
          let dirty =
            match prune_dirty with
            | None -> dirty
            | Some drop -> List.filter (fun p -> not (drop p)) dirty
          in
          let dirty_tbl = Prefix.Tbl.create 64 in
          List.iter (fun p -> Prefix.Tbl.replace dirty_tbl p ()) dirty;
          let is_dirty = Prefix.Tbl.mem dirty_tbl in
          let n_dirty = Prefix.Tbl.length dirty_tbl in
          (* the restricted re-convergence: from-scratch fixpoint over
             only the dirty prefixes (base adj-RIB state for them is
             invalid by definition; clean prefixes never enter) *)
          let delta_rows =
            if n_dirty = 0 then Rib.empty
            else
              Telemetry.with_span tm "inc.delta_fixpoint" (fun () ->
                  (Route_sim.run ~tm ~include_locals:false ~only:is_dirty
                     patched ~input_routes:inputs ())
                    .Route_sim.rib)
          in
          let local_changes = changed_local_devices cx.cx_model patched in
          let locals dev =
            Option.value ~default:[]
              (Smap.find_opt dev patched.Model.local_tables)
          in
          let span = Telemetry.span tm "inc.splice" in
          let rib, sp =
            Splice.run cx.cx_splice ~dirty:dirty_tbl ~delta:delta_rows
              ~changed:(List.map fst local_changes) ~locals
          in
          if Telemetry.enabled tm then
            Telemetry.finish tm span
              ~args:
                [
                  ("devices_rebuilt", string_of_int sp.Splice.sp_rebuilt);
                  ("devices_shared", string_of_int sp.Splice.sp_shared);
                  ("rows_copied", string_of_int sp.Splice.sp_copied);
                ];
          (* a local-only slot's base BGP rows (off the dirty set, so
             they are clean), looked up now so the lazy FIB patch reads
             no RIB *)
          let local_slots =
            List.concat_map
              (fun (dev, prefixes) ->
                List.filter_map
                  (fun p ->
                    if is_dirty p then None
                    else
                      Some
                        ( dev,
                          p,
                          Rib.slot cx.cx_splice.Splice.sb_bgp ~device:dev
                            ~vrf:Route.default_vrf ~prefix:p ))
                  prefixes)
              local_changes
          in
          let stats =
            {
              st_class = d.Differential.df_class;
              st_full_fallback = false;
              st_fallback_reason = None;
              st_dirty_prefixes = n_dirty;
              st_dirty_devices = sp.Splice.sp_rebuilt;
              st_reused_rows = sp.Splice.sp_reused;
              st_delta_rows = Rib.length delta_rows;
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
          let patch =
            lazy
              (let sp = Telemetry.span tm "inc.patch_fibs" in
               let fp =
                 Traffic_sim.patch_fibs ~base:cx.cx_fibs ~base_ecx:cx.cx_ecx
                   (fib_slots cx patched ~dirty:dirty_tbl ~delta_rows
                      ~local_slots)
               in
               Telemetry.finish tm sp
                 ~args:
                   [
                     ( "fib_dirty_prefixes",
                       string_of_int fp.Traffic_sim.fp_prefixes );
                     ( "patched_devices",
                       string_of_int fp.Traffic_sim.fp_devices );
                     ( "union_changed",
                       string_of_int (List.length fp.Traffic_sim.fp_union) );
                   ];
               fp)
          in
          let fibs = lazy (Lazy.force patch).Traffic_sim.fp_fibs in
          let ecx =
            lazy
              (let fp = Lazy.force patch in
               Telemetry.with_span tm "inc.ec_ctx" (fun () ->
                   Traffic_sim.patch_ec_ctx ~base:cx.cx_ecx patched fp))
          in
          {
            s_model = patched;
            s_rib = rib;
            s_dirty = dirty;
            s_stats = stats;
            s_fibs = fibs;
            s_ecx = ecx;
            s_traffic = make_traffic tm cx patched rib fibs ecx;
          })

(* ------------------------------------------------------------------ *)
(* The byte-identity oracle                                            *)
(* ------------------------------------------------------------------ *)

type check = {
  ck_ok : bool;
  ck_rib_ok : bool;
  ck_fib_ok : bool;
  ck_traffic_ok : bool;
  ck_stats : stats;
  ck_missing : Route.t list;
  ck_extra : Route.t list;
}

(* Every device's bindings equal, leaf lists by [Route.equal]; an absent
   trie and an empty one are the same FIB. *)
let fibs_identical (a : Traffic_sim.fib) (b : Traffic_sim.fib) : bool =
  let bindings fibs dev =
    match Hashtbl.find_opt fibs dev with
    | Some trie -> Trie.Dual.to_list trie
    | None -> []
  in
  let devices =
    Hashtbl.fold (fun dev _ acc -> dev :: acc) a []
    @ Hashtbl.fold (fun dev _ acc -> dev :: acc) b []
    |> List.sort_uniq String.compare
  in
  List.for_all
    (fun dev ->
      List.equal
        (fun (p, l) (q, m) -> Prefix.equal p q && List.equal Route.equal l m)
        (bindings a dev) (bindings b dev))
    devices

let traffic_identical (a : Traffic_sim.result) (b : Traffic_sim.result) :
    bool =
  let loads (r : Traffic_sim.result) =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.Traffic_sim.link_load []
    |> List.sort compare
  in
  let path_equal (p : Traffic_sim.path) (q : Traffic_sim.path) =
    List.equal String.equal p.Traffic_sim.hops q.Traffic_sim.hops
    && p.Traffic_sim.fraction = q.Traffic_sim.fraction
  in
  loads a = loads b
  && List.length a.Traffic_sim.flow_results
     = List.length b.Traffic_sim.flow_results
  && List.for_all2
       (fun (x : Traffic_sim.flow_result) (y : Traffic_sim.flow_result) ->
         Flow.equal x.Traffic_sim.f_flow y.Traffic_sim.f_flow
         && List.equal path_equal x.Traffic_sim.f_paths y.Traffic_sim.f_paths
         && x.Traffic_sim.f_delivered = y.Traffic_sim.f_delivered
         && x.Traffic_sim.f_dropped = y.Traffic_sim.f_dropped
         && x.Traffic_sim.f_looped = y.Traffic_sim.f_looped)
       a.Traffic_sim.flow_results b.Traffic_sim.flow_results

let selfcheck ?tm ?(traffic = true) ?prune_dirty (cx : ctx) (plan : Cp.t) :
    check =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let sim = simulate ~tm ?prune_dirty cx plan in
  (* the independent witness: full from-scratch patched simulation, on
     the plan re-applied by [Model.apply_change_plan] rather than taken
     from the diff [simulate] read *)
  let patched, _ = Model.apply_change_plan cx.cx_model plan in
  let inputs = Differential.patched_routes plan cx.cx_input_routes in
  let full = (Route_sim.run ~tm patched ~input_routes:inputs ()).Route_sim.rib in
  let rib_ok = Rib.equal full sim.s_rib in
  let missing = Rib.to_list (Rib.diff full sim.s_rib) in
  let extra = Rib.to_list (Rib.diff sim.s_rib full) in
  let fib_ok, traffic_ok =
    if not traffic then (true, true)
    else
      let fibs = Traffic_sim.build_fibs full in
      let ecx = Traffic_sim.ec_ctx patched fibs in
      let fib_ok =
        fibs_identical fibs (Lazy.force sim.s_fibs)
        && List.equal Prefix.equal
             (Traffic_sim.union_prefixes ecx)
             (Traffic_sim.union_prefixes (Lazy.force sim.s_ecx))
      in
      let full_traffic =
        Traffic_sim.run ~tm ~fibs ~ecx patched ~rib:full ~flows:cx.cx_flows ()
      in
      (fib_ok, traffic_identical full_traffic (Lazy.force sim.s_traffic))
  in
  if Telemetry.enabled tm then
    Telemetry.event tm "inc.selfcheck"
      [
        ("rib_ok", Journal.B rib_ok);
        ("fib_ok", Journal.B fib_ok);
        ("traffic_ok", Journal.B traffic_ok);
        ("missing", Journal.I (List.length missing));
        ("extra", Journal.I (List.length extra));
      ];
  {
    ck_ok = rib_ok && fib_ok && traffic_ok;
    ck_rib_ok = rib_ok;
    ck_fib_ok = fib_ok;
    ck_traffic_ok = traffic_ok;
    ck_stats = sim.s_stats;
    ck_missing = missing;
    ck_extra = extra;
  }
