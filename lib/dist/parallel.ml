(** Real multicore execution of subtasks (OCaml 5 domains).

    The deterministic scheduler ({!Schedule}) is what the benchmarks use
    to obtain multi-server curves; this module additionally provides a
    {e real} parallel executor so the framework can be exercised with
    genuinely concurrent workers on one machine.  The compiled model is
    read-only during simulation, so workers share it; the work list is
    distributed via an atomic index. *)

module Telemetry = Hoyan_telemetry.Telemetry

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* A worker's claim range [lo, hi) packed into one atomic int (lo in the
   high bits, hi in the low 30), so claiming and stealing are single-word
   compare-and-set operations. *)
let range_bits = 30
let range_mask = (1 lsl range_bits) - 1
let pack_range lo hi = (lo lsl range_bits) lor hi
let range_lo v = v lsr range_bits
let range_hi v = v land range_mask

(** Parallel map preserving order.  [f] must only read shared state.
    If [f] raises, one raised exception is re-raised on the caller after
    all domains have been joined.

    Scheduling is chunked work-stealing rather than a single shared
    counter: each worker starts with a contiguous claim range sized by
    {!Costmodel.chunk_plan} from the optional per-item [weights]
    (defaulting to uniform), claims chunks from the front of its own
    range, and when drained steals the back half of the fullest peer
    range.  Workers therefore touch the shared atomics once per chunk
    instead of once per item, and estimation error in the weights is
    corrected at runtime by the steals.

    Each worker domain runs under one telemetry span ([parallel.domain],
    tagged with the worker index and the number of items it claimed);
    spans are recorded into per-domain shards, so tracing is safe across
    domains. *)
let map ?tm ?(domains = default_domains ()) ?weights (f : 'a -> 'b)
    (xs : 'a list) : 'b list =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | _ ->
      let arr = Array.of_list xs in
      let n = Array.length arr in
      assert (n <= range_mask);
      let workers = max 1 (min domains n) in
      let weights =
        match weights with
        | Some w when Array.length w = n -> w
        | _ -> Array.make n 1.
      in
      let ranges =
        Costmodel.chunk_plan ~workers weights
        |> Array.map (fun (lo, hi) -> Atomic.make (pack_range lo hi))
      in
      let results = Array.make n None in
      let failure = Atomic.make None in
      (* claim a chunk from the front of worker [w]'s own range *)
      let rec claim_own w =
        let v = Atomic.get ranges.(w) in
        let lo = range_lo v and hi = range_hi v in
        if lo >= hi then None
        else
          (* an eighth of what's left: small enough to rebalance via
             steals, large enough to amortize the compare-and-set *)
          let c = max 1 ((hi - lo) / 8) in
          if Atomic.compare_and_set ranges.(w) v (pack_range (lo + c) hi)
          then Some (lo, lo + c)
          else claim_own w
      in
      (* steal the back half of the fullest peer range into our own;
         [`Retry] on a lost race, [`Empty] when every range is drained *)
      let steal w =
        let best = ref (-1) and best_len = ref 0 in
        for o = 0 to workers - 1 do
          if o <> w then begin
            let v = Atomic.get ranges.(o) in
            let len = range_hi v - range_lo v in
            if len > !best_len then begin
              best := o;
              best_len := len
            end
          end
        done;
        if !best < 0 then `Empty
        else
          let o = !best in
          let v = Atomic.get ranges.(o) in
          let lo = range_lo v and hi = range_hi v in
          if lo >= hi then `Retry
          else
            let mid = lo + ((hi - lo) / 2) in
            if Atomic.compare_and_set ranges.(o) v (pack_range lo mid)
            then begin
              (* our own range is drained and only its owner refills it,
                 so a plain store is race-free *)
              Atomic.set ranges.(w) (pack_range mid hi);
              `Stolen
            end
            else `Retry
      in
      let worker wid () =
        let sp =
          if Telemetry.enabled tm then
            Telemetry.span tm
              ~args:[ ("worker", string_of_int wid) ]
              "parallel.domain"
          else Hoyan_telemetry.Trace.null_span
        in
        let claimed = ref 0 and steals = ref 0 in
        let run_chunk lo hi =
          for i = lo to hi - 1 do
            (* stop computing once any worker has failed *)
            if Atomic.get failure = None then begin
              incr claimed;
              match f arr.(i) with
              | v -> results.(i) <- Some v
              | exception e ->
                  let bt = Printexc.get_raw_backtrace () in
                  ignore (Atomic.compare_and_set failure None (Some (e, bt)))
            end
          done
        in
        let rec loop () =
          if Atomic.get failure = None then
            match claim_own wid with
            | Some (lo, hi) ->
                run_chunk lo hi;
                loop ()
            | None -> (
                match steal wid with
                | `Stolen ->
                    incr steals;
                    loop ()
                | `Retry ->
                    Domain.cpu_relax ();
                    loop ()
                | `Empty -> ())
        in
        loop ();
        if Telemetry.enabled tm then begin
          Telemetry.finish tm
            ~args:[ ("items", string_of_int !claimed) ]
            sp;
          Telemetry.count tm "hoyan_parallel_items_total" !claimed;
          if !steals > 0 then
            Telemetry.count tm "hoyan_parallel_steals_total" !steals
        end
      in
      let spawned =
        List.init (workers - 1) (fun i ->
            Domain.spawn (fun () -> worker (i + 1) ()))
      in
      worker 0 ();
      List.iter Domain.join spawned;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.to_list results
          |> List.map (function Some v -> v | None -> assert false)

(** The (device, vrf, prefix) universe a route phase can produce rows
    over: topology devices, every vrf named by a config or a route, and
    the input/local/network/aggregate prefixes.  Built by the
    coordinator before domains spawn; routes outside the universe (none
    in practice) fall back to {!Rib.Arena}'s structural overflow path. *)
let route_key_ctx (model : Hoyan_sim.Model.t)
    ~(input_routes : Hoyan_net.Route.t list) : Hoyan_net.Rib.Key.ctx =
  let module M = Hoyan_sim.Model in
  let module Route = Hoyan_net.Route in
  let module Types = Hoyan_config.Types in
  let locals =
    M.Smap.fold (fun _ rs acc -> List.rev_append rs acc) model.M.local_tables
      []
  in
  let devices = ref [] and vrfs = ref [ "global"; "default" ] in
  let prefixes = ref [] in
  List.iter
    (fun (d : Hoyan_net.Topology.device) ->
      devices := d.Hoyan_net.Topology.name :: !devices)
    (Hoyan_net.Topology.devices model.M.topo);
  let add_route (r : Route.t) =
    devices := r.Route.device :: !devices;
    vrfs := r.Route.vrf :: !vrfs;
    prefixes := r.Route.prefix :: !prefixes
  in
  List.iter add_route input_routes;
  List.iter add_route locals;
  M.Smap.iter
    (fun _ (cfg : Types.t) ->
      let bgp = cfg.Types.dc_bgp in
      List.iter
        (fun (nb : Types.neighbor) -> vrfs := nb.Types.nb_vrf :: !vrfs)
        bgp.Types.bgp_neighbors;
      List.iter
        (fun (p, v) ->
          prefixes := p :: !prefixes;
          vrfs := v :: !vrfs)
        bgp.Types.bgp_networks;
      List.iter
        (fun (a : Types.aggregate) ->
          prefixes := a.Types.ag_prefix :: !prefixes;
          vrfs := a.Types.ag_vrf :: !vrfs)
        bgp.Types.bgp_aggregates;
      List.iter
        (fun (v : Types.vrf_def) -> vrfs := v.Types.vd_name :: !vrfs)
        bgp.Types.bgp_vrfs;
      List.iter
        (fun (s : Types.static_route) -> vrfs := s.Types.st_vrf :: !vrfs)
        cfg.Types.dc_statics)
    model.M.configs;
  Hoyan_net.Rib.Key.make ~devices:!devices ~vrfs:!vrfs ~prefixes:!prefixes

(** Run the route subtasks of a split in parallel and return the merged
    global RIB (plus local tables).  Equivalent to
    {!Framework.run_route_phase} but with real concurrency; used by the
    distributed-vs-centralized equivalence tests.

    Each worker fills a compact {!Rib.Arena} (sorted inside the worker
    domain) and the coordinator merges arenas with a sorted merge, so
    the result is byte-identical to concatenating every subtask RIB and
    running [List.sort_uniq Route.compare].  The base run (origination,
    empty input) is work item 0 rather than a pre-pass, so it overlaps
    with the subtask workers instead of serializing in front of them. *)
let route_phase_rib ?tm ?(domains = default_domains ()) ?(use_ecs = true)
    ?(strategy = Split.Ordered) ?(subtasks = 32)
    (model : Hoyan_sim.Model.t) ~(input_routes : Hoyan_net.Route.t list) :
    Hoyan_net.Route.t list =
  let module Rib = Hoyan_net.Rib in
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let gc0 = Gc.quick_stat () in
  let sp = Telemetry.span tm "parallel.route_phase" in
  let splits = Split.split_routes ~strategy ~subtasks input_routes in
  let ctx = route_key_ctx model ~input_routes in
  let run_subtask = function
    | `Base ->
        (* origination + empty input: what the seed computed serially
           before spawning workers *)
        Rib.Arena.of_routes ctx
          (Hoyan_sim.Route_sim.run ~tm ~use_ecs ~include_locals:false model
             ~input_routes:[] ())
            .Hoyan_sim.Route_sim.rib
    | `Chunk routes ->
        Rib.Arena.of_routes ctx
          (Hoyan_sim.Route_sim.run ~tm ~use_ecs ~include_locals:false
             ~originate:false model ~input_routes:routes ())
            .Hoyan_sim.Route_sim.rib
  in
  let items = `Base :: List.map (fun (routes, _range) -> `Chunk routes) splits in
  let cm = Costmodel.default in
  let weights =
    Array.of_list
      (List.map
         (function
           | `Base ->
               (* origination cost scales with the device-local tables *)
               Costmodel.est_route_subtask cm
                 ~routes:
                   (Hoyan_sim.Model.Smap.fold
                      (fun _ rs n -> n + List.length rs)
                      model.Hoyan_sim.Model.local_tables 0)
           | `Chunk routes ->
               Costmodel.est_route_subtask cm ~routes:(List.length routes))
         items)
  in
  let arenas = map ~tm ~domains ~weights run_subtask items in
  let rib = Rib.Arena.merge arenas in
  Telemetry.finish tm sp;
  let gc1 = Gc.quick_stat () in
  if Telemetry.enabled tm then begin
    Telemetry.count tm "hoyan_gc_minor_collections_total"
      (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    Telemetry.count tm "hoyan_gc_major_collections_total"
      (gc1.Gc.major_collections - gc0.Gc.major_collections);
    Telemetry.count tm "hoyan_gc_promoted_words_total"
      (int_of_float (gc1.Gc.promoted_words -. gc0.Gc.promoted_words))
  end;
  let locals =
    Hoyan_sim.Model.Smap.fold
      (fun _ rs acc -> List.rev_append rs acc)
      model.Hoyan_sim.Model.local_tables []
  in
  rib @ locals

(** Domain-parallel traffic phase.

    Flows are sharded with the §3.2 ordering heuristic (sorted by
    destination, contiguous shards — each shard's walks touch few FIB
    regions); the compiled model and the FIB tries are built once and
    shared read-only across domains; each shard accumulates its own
    link-load table and the per-shard results are merged in shard order,
    so the output is a deterministic function of the inputs — identical
    whatever the domain count (including [domains = 1]). *)
let traffic_phase ?tm ?(domains = default_domains ())
    ?(strategy = Split.Ordered) ?(subtasks = 32) ?(use_ecs = true)
    (model : Hoyan_sim.Model.t) ~(rib : Hoyan_net.Route.t list)
    ~(flows : Hoyan_net.Flow.t list) () : Hoyan_sim.Traffic_sim.result =
  let module T = Hoyan_sim.Traffic_sim in
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  let sp = Telemetry.span tm "parallel.traffic_phase" in
  let fibs =
    Telemetry.with_span tm "traffic.build_fibs" (fun () -> T.build_fibs rib)
  in
  let ecx = T.ec_ctx model fibs in
  let shards = Split.split_flows ~strategy ~subtasks flows in
  let outs =
    map ~tm ~domains
      (fun (fs, _range) ->
        T.run ~tm ~use_ecs ~fibs ~ecx model ~rib:[] ~flows:fs ())
      shards
  in
  Telemetry.finish tm sp;
  (* merge in shard order: link loads sum associatively per shard table,
     flow results concatenate *)
  let link_load = Hashtbl.create 1024 in
  List.iter
    (fun (o : T.result) ->
      Hashtbl.iter
        (fun k v ->
          let cur = Option.value (Hashtbl.find_opt link_load k) ~default:0. in
          Hashtbl.replace link_load k (cur +. v))
        o.T.link_load)
    outs;
  let flow_results =
    List.concat_map (fun (o : T.result) -> o.T.flow_results) outs
  in
  let ec_count = List.fold_left (fun n (o : T.result) -> n + o.T.ec_count) 0 outs in
  let flow_count =
    List.fold_left (fun n (o : T.result) -> n + o.T.flow_count) 0 outs
  in
  {
    T.flow_results;
    link_load;
    flow_count;
    ec_count;
    compression =
      (if ec_count = 0 then 1.0
       else float_of_int (List.length flows) /. float_of_int ec_count);
  }
