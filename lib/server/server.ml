(* The verification server (see the .mli and DESIGN.md §2.8).

   Everything here is deliberately deterministic: admission decisions
   depend only on configured bounds and the submission sequence, the
   drain order is the submission order, and the verdict bodies depend
   only on the request content — so identical request streams produce
   identical response streams, which is what lets the tests assert
   byte-identity against direct execution. *)

module Preprocess = Hoyan_core.Preprocess
module Verify_request = Hoyan_core.Verify_request
module Intents = Hoyan_core.Intents
module Kfailure = Hoyan_core.Kfailure
module Cp = Hoyan_config.Change_plan
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal

type config = {
  c_queue_depth : int;
  c_tenant_quota : int;
  c_cache_capacity : int;
  c_default_budget_s : float;
}

let default_config =
  {
    c_queue_depth = 256;
    c_tenant_quota = 64;
    c_cache_capacity = 1024;
    c_default_budget_s = 300.;
  }

type status =
  | Ok
  | Fail
  | Rejected of string
  | Timeout
  | Error of string

let status_to_string = function
  | Ok -> "ok"
  | Fail -> "fail"
  | Rejected reason -> "rejected:" ^ reason
  | Timeout -> "timeout"
  | Error _ -> "error"

type response = {
  rs_seq : int;
  rs_id : string;
  rs_tenant : string;
  rs_class : Request.rq_class;
  rs_status : status;
  rs_body : string;
  rs_cached : bool;
  rs_queue_s : float;
  rs_exec_s : float;
}

type stats = {
  st_submitted : int;
  st_admitted : int;
  st_rejected_queue : int;
  st_rejected_quota : int;
  st_rejected_snapshot : int;
  st_completed : int;
  st_failed : int;
  st_timeouts : int;
  st_errors : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_evictions : int;
}

type pending = {
  p_seq : int;
  p_rq : Request.t;
  p_snap : Snapshot.t;
  p_submit_t : float;
}

type t = {
  cfg : config;
  tm : Telemetry.t;
  cache : (status * string) Cache.t;
  snaps : (string, Snapshot.t) Hashtbl.t;
  mutable snap_order : string list;  (* registration order, reversed *)
  mutable default_snap : string option;
  mutable queue : pending list;  (* reversed submission order *)
  tenant_queued : (string, int) Hashtbl.t;
  mutable seq : int;
  mutable n_submitted : int;
  mutable n_admitted : int;
  mutable n_rej_queue : int;
  mutable n_rej_quota : int;
  mutable n_rej_snapshot : int;
  mutable n_completed : int;
  mutable n_failed : int;
  mutable n_timeouts : int;
  mutable n_errors : int;
}

let create ?tm ?(config = default_config) () =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  {
    cfg = config;
    tm;
    cache = Cache.create ~capacity:config.c_cache_capacity;
    snaps = Hashtbl.create 4;
    snap_order = [];
    default_snap = None;
    queue = [];
    tenant_queued = Hashtbl.create 16;
    seq = 0;
    n_submitted = 0;
    n_admitted = 0;
    n_rej_queue = 0;
    n_rej_quota = 0;
    n_rej_snapshot = 0;
    n_completed = 0;
    n_failed = 0;
    n_timeouts = 0;
    n_errors = 0;
  }

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* The one snapshot dedup: re-registering identical content (a replayed
   snapshot list, two tenants uploading the same base) is a table hit
   that costs one digest, not a re-convergence. *)
let register_snapshot t (base : Preprocess.base) : Snapshot.t =
  let digest = Snapshot.digest_of_base base in
  match Hashtbl.find_opt t.snaps digest with
  | Some s ->
      Telemetry.count t.tm "hoyan_server_snapshot_dedup_total" 1;
      if Telemetry.enabled t.tm then
        Telemetry.event t.tm "server.snapshot.dedup"
          [ ("snapshot", Journal.S digest) ];
      s
  | None ->
      let s = Snapshot.register ~tm:t.tm ~digest base in
      Hashtbl.replace t.snaps digest s;
      t.snap_order <- digest :: t.snap_order;
      if t.default_snap = None then t.default_snap <- Some digest;
      s

let find_snapshot t digest = Hashtbl.find_opt t.snaps digest

let snapshots t =
  List.rev_map (fun d -> Hashtbl.find t.snaps d) t.snap_order

(* ------------------------------------------------------------------ *)
(* The execution path                                                  *)
(* ------------------------------------------------------------------ *)

(* A whatif's property: its one `intent reach present' stanza, over the
   snapshot base.  Any other intent, and any plan content, would be
   digested into the cache key but never read, so they are errors
   rather than silently dropped. *)
let whatif_property (rq : Request.t) =
  let p = rq.Request.r_plan in
  if
    p.Cp.cp_commands <> [] || p.Cp.cp_topo_ops <> []
    || p.Cp.cp_new_routes <> [] || p.Cp.cp_withdraw <> []
  then
    Stdlib.Error "whatif sweeps the snapshot base: its plan must be empty"
  else
    match rq.Request.r_intents with
    | [ Intents.Route_reach { rr_prefix; rr_devices; rr_expect = true } ] ->
        Stdlib.Ok
          (Kfailure.prefix_survives ~prefix:rr_prefix ~devices:rr_devices)
    | [ _ ] -> Stdlib.Error "whatif's one intent must be `intent reach present'"
    | is ->
        Stdlib.Error
          (Printf.sprintf
             "whatif needs exactly one `intent reach present' stanza, got \
              %d intents"
             (List.length is))

(* The request's one application of its plan, against its snapshot's
   base: the cache key and every class's run read it.  An application
   that raises is an [Error] response, as a run that raises is. *)
let prepare ?(tm = Telemetry.noop) (snap : Snapshot.t) (rq : Request.t) =
  try
    Stdlib.Ok
      (Verify_request.prepare ~tm snap.Snapshot.sn_base
         {
           Verify_request.rq_name = rq.Request.r_id;
           rq_plan = rq.Request.r_plan;
           rq_intents = rq.Request.r_intents;
         })
  with e -> Stdlib.Error (Error (Printexc.to_string e))

(* The one dispatch, for both front doors: the request class decides
   what runs on the prepared request.  [inc] (the snapshot's lazily
   captured context) is forced only by the classes that splice a plan's
   simulation, [simulate] and [diff]; without it they run from scratch.
   Lint and precheck never simulate, and a whatif sweep restricts its
   own base fixpoint, so none of them captures it.  Returns the
   per-phase timing split (route/static pipeline seconds,
   traffic-forcing seconds) so [execute_one] can attribute the
   server.request span honestly. *)
let run_prepared ?(tm = Telemetry.noop) ?inc (snap : Snapshot.t)
    (rq : Request.t) (prepared : Verify_request.prepared) :
    status * string * float * float =
  let base = snap.Snapshot.sn_base in
  let verify stage =
    let res = Verify_request.execute ~tm ~stage prepared in
    ( (if res.Verify_request.vr_ok then Ok else Fail),
      Verify_request.body res,
      res.Verify_request.vr_sim_seconds,
      !(res.Verify_request.vr_traffic_seconds) )
  in
  let exec () =
    match inc with
    | Some cx -> Verify_request.Splice (Lazy.force cx)
    | None -> Verify_request.From_scratch
  in
  try
    match rq.Request.r_class with
    | Request.Lint -> verify Verify_request.Lint
    | Request.Precheck -> verify Verify_request.Precheck
    | Request.Simulate -> verify (Verify_request.Simulate (exec ()))
    | Request.Diff -> verify (Verify_request.Diff (exec ()))
    | Request.Whatif -> (
        match whatif_property rq with
        | Stdlib.Error msg -> (Error msg, "", 0., 0.)
        | Stdlib.Ok prop ->
            let devices, links =
              match rq.Request.r_scope with
              | Request.Links_only -> (false, true)
              | Request.Devices_only -> (true, false)
              | Request.Links_and_devices -> (true, true)
            in
            let res =
              Kfailure.check ~tm ~devices ~links base.Preprocess.b_model
                ~input_routes:base.Preprocess.b_input_routes
                ~flows:base.Preprocess.b_flows ~k:rq.Request.r_k prop
            in
            ( (if res.Kfailure.kr_violations = [] then Ok else Fail),
              Kfailure.body res,
              0.,
              0. ))
  with e -> (Error (Printexc.to_string e), "", 0., 0.)

let run_direct (snap : Snapshot.t) (rq : Request.t) : status * string =
  match prepare snap rq with
  | Stdlib.Error st -> (st, "")
  | Stdlib.Ok prepared ->
      let st, body, _, _ = run_prepared snap rq prepared in
      (st, body)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let queue_depth t = List.length t.queue

let tenant_count t tenant =
  Option.value (Hashtbl.find_opt t.tenant_queued tenant) ~default:0

let reject t seq (rq : Request.t) reason : response =
  (match reason with
  | "queue-full" -> t.n_rej_queue <- t.n_rej_queue + 1
  | "tenant-quota" -> t.n_rej_quota <- t.n_rej_quota + 1
  | _ -> t.n_rej_snapshot <- t.n_rej_snapshot + 1);
  if Telemetry.enabled t.tm then begin
    Telemetry.count t.tm ~labels:[ ("reason", reason) ]
      "hoyan_server_rejected_total" 1;
    Telemetry.event t.tm "server.reject"
      [
        ("id", Journal.S rq.Request.r_id);
        ("tenant", Journal.S rq.Request.r_tenant);
        ("reason", Journal.S reason);
      ]
  end;
  {
    rs_seq = seq;
    rs_id = rq.Request.r_id;
    rs_tenant = rq.Request.r_tenant;
    rs_class = rq.Request.r_class;
    rs_status = Rejected reason;
    rs_body = "";
    rs_cached = false;
    rs_queue_s = 0.;
    rs_exec_s = 0.;
  }

let submit t (rq : Request.t) : (unit, response) result =
  let seq = t.seq in
  t.seq <- seq + 1;
  t.n_submitted <- t.n_submitted + 1;
  let snap =
    match rq.Request.r_snapshot with
    | Some d -> Hashtbl.find_opt t.snaps d
    | None -> (
        match t.default_snap with
        | Some d -> Hashtbl.find_opt t.snaps d
        | None -> None)
  in
  let decision =
    match snap with
    | None -> Stdlib.Error (reject t seq rq "unknown-snapshot")
    | Some snap ->
        if queue_depth t >= t.cfg.c_queue_depth then
          Stdlib.Error (reject t seq rq "queue-full")
        else if tenant_count t rq.Request.r_tenant >= t.cfg.c_tenant_quota
        then Stdlib.Error (reject t seq rq "tenant-quota")
        else begin
          t.queue <-
            {
              p_seq = seq;
              p_rq = rq;
              p_snap = snap;
              p_submit_t = Unix.gettimeofday ();
            }
            :: t.queue;
          Hashtbl.replace t.tenant_queued rq.Request.r_tenant
            (tenant_count t rq.Request.r_tenant + 1);
          t.n_admitted <- t.n_admitted + 1;
          Stdlib.Ok ()
        end
  in
  if Telemetry.enabled t.tm then
    Telemetry.gauge t.tm "hoyan_server_queue_depth"
      (float_of_int (queue_depth t));
  decision

(* ------------------------------------------------------------------ *)
(* The drain loop                                                      *)
(* ------------------------------------------------------------------ *)

let execute_one t (p : pending) : response =
  let rq = p.p_rq in
  let sp =
    Telemetry.span t.tm
      ~args:
        [
          ("id", rq.Request.r_id);
          ("class", Request.class_to_string rq.Request.r_class);
          ("tenant", rq.Request.r_tenant);
        ]
      "server.request"
  in
  let budget =
    Option.value rq.Request.r_budget_s ~default:t.cfg.c_default_budget_s
  in
  let t0 = Unix.gettimeofday () in
  let queue_s = t0 -. p.p_submit_t in
  (* the plan applied once; the simulating classes splice against the
     snapshot's captured context, forced by the first such request;
     nothing is kept per plan *)
  let run prepared =
    run_prepared ~tm:t.tm ~inc:p.p_snap.Snapshot.sn_inc p.p_snap rq prepared
  in
  let status, body, cached, sim_s, traffic_s =
    match prepare ~tm:t.tm p.p_snap rq with
    | Stdlib.Error st -> (st, "", false, 0., 0.)
    | Stdlib.Ok prepared when rq.Request.r_no_cache ->
        let st, body, ss, ts = run prepared in
        (st, body, false, ss, ts)
    | Stdlib.Ok prepared -> (
        let key =
          Request.key ~snapshot_digest:p.p_snap.Snapshot.sn_digest
            prepared.Verify_request.pr_diff rq
        in
        match Cache.find t.cache key with
        | Some (st, body) -> (st, body, true, 0., 0.)
        | None ->
            let st, body, ss, ts = run prepared in
            (match st with
            | Ok | Fail -> Cache.add t.cache key (st, body)
            | Rejected _ | Timeout | Error _ -> ());
            (st, body, false, ss, ts))
  in
  let exec_s = Unix.gettimeofday () -. t0 in
  (* the budget timer: a request that ran past its budget is a timeout
     and gets no verdict — not a partial one *)
  let status, body =
    if exec_s > budget then (Timeout, "") else (status, body)
  in
  (match status with
  | Timeout -> t.n_timeouts <- t.n_timeouts + 1
  | Error _ -> t.n_errors <- t.n_errors + 1
  | Ok | Fail | Rejected _ ->
      t.n_completed <- t.n_completed + 1;
      if status = Fail then t.n_failed <- t.n_failed + 1);
  if Telemetry.enabled t.tm then begin
    let cls = Request.class_to_string rq.Request.r_class in
    Telemetry.count t.tm ~labels:[ ("class", cls) ]
      "hoyan_server_requests_total" 1;
    Telemetry.observe t.tm ~labels:[ ("class", cls) ]
      "hoyan_server_request_seconds" exec_s;
    if not cached then begin
      Telemetry.observe t.tm ~labels:[ ("class", cls) ]
        "hoyan_server_request_sim_seconds" sim_s;
      Telemetry.observe t.tm ~labels:[ ("class", cls) ]
        "hoyan_server_request_traffic_seconds" traffic_s
    end;
    Telemetry.observe t.tm "hoyan_server_queue_seconds" queue_s;
    Telemetry.count t.tm
      (if cached then "hoyan_server_cache_hit_total"
       else "hoyan_server_cache_miss_total")
      1;
    Telemetry.event t.tm "server.request"
      [
        ("id", Journal.S rq.Request.r_id);
        ("class", Journal.S cls);
        ("tenant", Journal.S rq.Request.r_tenant);
        ("status", Journal.S (status_to_string status));
        ("cached", Journal.B cached);
      ]
  end;
  Telemetry.finish t.tm
    ~args:
      [
        ("status", status_to_string status);
        ("cached", string_of_bool cached);
        ("sim_s", Printf.sprintf "%.6f" sim_s);
        ("traffic_s", Printf.sprintf "%.6f" traffic_s);
      ]
    sp;
  {
    rs_seq = p.p_seq;
    rs_id = rq.Request.r_id;
    rs_tenant = rq.Request.r_tenant;
    rs_class = rq.Request.r_class;
    rs_status = status;
    rs_body = body;
    rs_cached = cached;
    rs_queue_s = queue_s;
    rs_exec_s = exec_s;
  }

let drain t : response list =
  let pending = List.rev t.queue in
  t.queue <- [];
  Hashtbl.reset t.tenant_queued;
  let responses = List.map (execute_one t) pending in
  if Telemetry.enabled t.tm then
    Telemetry.gauge t.tm "hoyan_server_queue_depth" 0.;
  responses

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let stats t =
  {
    st_submitted = t.n_submitted;
    st_admitted = t.n_admitted;
    st_rejected_queue = t.n_rej_queue;
    st_rejected_quota = t.n_rej_quota;
    st_rejected_snapshot = t.n_rej_snapshot;
    st_completed = t.n_completed;
    st_failed = t.n_failed;
    st_timeouts = t.n_timeouts;
    st_errors = t.n_errors;
    st_cache_hits = Cache.hits t.cache;
    st_cache_misses = Cache.misses t.cache;
    st_cache_evictions = Cache.evictions t.cache;
  }

let report t =
  let s = stats t in
  let b = Buffer.create 256 in
  Buffer.add_string b "=== hoyan server ===\n";
  List.iter
    (fun snap -> Buffer.add_string b (Snapshot.to_string snap ^ "\n"))
    (snapshots t);
  Buffer.add_string b
    (Printf.sprintf
       "requests: %d submitted, %d admitted, %d completed (%d FAIL), %d \
        timeout, %d error\n"
       s.st_submitted s.st_admitted s.st_completed s.st_failed s.st_timeouts
       s.st_errors);
  Buffer.add_string b
    (Printf.sprintf
       "admission: %d rejected (queue-full %d, tenant-quota %d, \
        unknown-snapshot %d)\n"
       (s.st_rejected_queue + s.st_rejected_quota + s.st_rejected_snapshot)
       s.st_rejected_queue s.st_rejected_quota s.st_rejected_snapshot);
  Buffer.add_string b
    (Printf.sprintf "cache: %d hit(s), %d miss(es), %d eviction(s), %d/%d \
                     entries%s\n"
       s.st_cache_hits s.st_cache_misses s.st_cache_evictions
       (Cache.size t.cache) (Cache.capacity t.cache)
       (let r = Cache.hit_rate t.cache in
        if Float.is_nan r then ""
        else Printf.sprintf " (hit rate %.1f%%)" (100. *. r)));
  Buffer.add_string b (Printf.sprintf "queued: %d\n" (queue_depth t));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Response rendering                                                  *)
(* ------------------------------------------------------------------ *)

let response_to_string ?(timing = true) (r : response) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "response %s %s tenant=%s status=%s cached=%b" r.rs_id
       (Request.class_to_string r.rs_class)
       r.rs_tenant
       (status_to_string r.rs_status)
       r.rs_cached);
  if timing then
    Buffer.add_string b
      (Printf.sprintf " queue_ms=%.3f exec_ms=%.3f" (1000. *. r.rs_queue_s)
         (1000. *. r.rs_exec_s));
  Buffer.add_char b '\n';
  (match r.rs_status with
  | Error msg -> Buffer.add_string b ("error: " ^ msg ^ "\n")
  | _ -> ());
  Buffer.add_string b r.rs_body;
  Buffer.add_string b "end-response\n";
  Buffer.contents b
