(** The distributed simulation framework (Figure 3).

    A simulation task is assigned to a master server, which splits the
    inputs into disjoint subsets (subtasks), uploads each subtask's input
    to the object store, and pushes a message per subtask into the MQ.
    Working servers consume messages, load inputs, run the subtask with
    the EC technique, update the subtask DB and write results back to the
    store; the master monitors the DB and re-sends failed subtasks.

    Fault tolerance is the master's monitor loop: between worker drains
    it scans the subtask DB for [Failed] entries, [Running] entries whose
    lease has expired (a worker died mid-subtask), [Pending] entries
    whose message was lost in flight, and [Done] entries whose result
    object has vanished — and re-sends each with exponential backoff
    until a bounded retry budget is exhausted, at which point the subtask
    goes [Terminal].  A phase's outcome contract then reports the exact
    set of permanently-failed subtasks ([rp_failed] / [tp_failed]): no
    code path merges partial results without flagging them.

    Failures are injected deterministically through a seeded {!Chaos}
    plan (worker crashes, storage-object loss, MQ message drop and
    duplication, worker stalls), so every failure mode is reproducible
    and testable.

    Subtasks are executed here on the calling thread, one after another,
    with their compute time measured and their I/O accounted; the
    multi-server end-to-end time is then obtained by replaying the
    measured durations through {!Schedule} (see DESIGN.md §2 for why this
    substitution preserves the paper's scalability behaviour).

    Every phase is instrumented through {!Hoyan_telemetry.Telemetry}:
    spans around the master's split/upload/monitor and each worker step,
    counters for pushes/pops/re-sends/lease expiries/terminal failures,
    and journal events for the subtask lifecycle.  With the default noop
    handle each site costs one branch. *)

open Hoyan_net
module Telemetry = Hoyan_telemetry.Telemetry
module Journal = Hoyan_telemetry.Journal
module Model = Hoyan_sim.Model
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim

(** Counters the master's monitor loop accumulates across a framework
    instance's phases (mutable; read for reports and benches). *)
type monitor_stats = {
  mutable ms_scans : int; (* monitor passes over the subtask DB *)
  mutable ms_scan_s : float; (* wall time spent scanning *)
  mutable ms_resends : int; (* subtasks re-sent to the MQ *)
  mutable ms_lease_expired : int; (* attempts reclaimed via lease expiry *)
  mutable ms_terminal : int; (* subtasks that went permanently failed *)
  mutable ms_reuploads : int; (* inputs re-uploaded from the master's split *)
  mutable ms_backoff_s : float; (* accumulated modelled backoff delay *)
  mutable ms_stale_msgs : int; (* duplicate/stale deliveries ignored *)
}

type t = {
  storage : Storage.t;
  mq : Mq.t;
  db : Db.t;
  model : Model.t;
  snapshot : string;
  chaos : Chaos.t; (* seeded fault-injection plan *)
  lease_s : float; (* per-attempt lease duration *)
  backoff_base_s : float; (* first-retry backoff (doubles per attempt) *)
  backoff_max_s : float;
  max_attempts : int; (* execution attempts before a subtask goes Terminal *)
  inputs : (string, string * Storage.obj) Hashtbl.t;
      (* subtask id -> (input key, retained input) so the monitor can
         re-upload a lost input object *)
  put_gens : (string, int) Hashtbl.t; (* object key -> puts so far *)
  stats : monitor_stats;
  tm : Telemetry.t;
}

let create ?tm ?(chaos = Chaos.none) ?(lease_s = 30.)
    ?(backoff_base_s = 0.05) ?(backoff_max_s = 5.) ?(max_attempts = 3)
    ?(snapshot = "base") (model : Model.t) : t =
  {
    storage = Storage.create ();
    mq = Mq.create ();
    db = Db.create ();
    model;
    snapshot;
    chaos;
    lease_s;
    backoff_base_s;
    backoff_max_s;
    max_attempts;
    inputs = Hashtbl.create 256;
    put_gens = Hashtbl.create 256;
    stats =
      {
        ms_scans = 0;
        ms_scan_s = 0.;
        ms_resends = 0;
        ms_lease_expired = 0;
        ms_terminal = 0;
        ms_reuploads = 0;
        ms_backoff_s = 0.;
        ms_stale_msgs = 0;
      };
    tm = (match tm with Some tm -> tm | None -> Telemetry.get ());
  }

(* Failure reasons the monitor pattern-matches on. *)
let reason_missing_input = "missing input object"
let reason_missing_result = "result object missing"

(* ------------------------------------------------------------------ *)
(* Telemetry helpers                                                   *)
(* ------------------------------------------------------------------ *)

let phase_label = function
  | Mq.Route_subtask -> "route"
  | Mq.Traffic_subtask -> "traffic"

let ev_chaos (t : t) (site : Chaos.site) (id : string) =
  if Telemetry.enabled t.tm then begin
    Telemetry.count t.tm
      ~labels:[ ("site", Chaos.site_label site) ]
      "hoyan_chaos_injections_total" 1;
    Telemetry.event t.tm "chaos.injected"
      [ ("site", Journal.S (Chaos.site_label site)); ("id", Journal.S id) ]
  end

let ev_enqueue (t : t) (msg : Mq.message) =
  if Telemetry.enabled t.tm then begin
    let phase = phase_label msg.Mq.m_kind in
    Telemetry.count t.tm ~labels:[ ("phase", phase) ]
      "hoyan_subtasks_enqueued_total" 1;
    Telemetry.event t.tm "subtask.enqueue"
      [
        ("id", Journal.S msg.Mq.m_id);
        ("phase", Journal.S phase);
        ("attempt", Journal.I msg.Mq.m_attempt);
      ]
  end

let ev_dequeue (t : t) (msg : Mq.message) ~attempt =
  if Telemetry.enabled t.tm then begin
    let phase = phase_label msg.Mq.m_kind in
    Telemetry.count t.tm ~labels:[ ("phase", phase) ]
      "hoyan_subtasks_dequeued_total" 1;
    Telemetry.event t.tm "subtask.dequeue"
      [
        ("id", Journal.S msg.Mq.m_id);
        ("phase", Journal.S phase);
        ("attempt", Journal.I attempt);
      ]
  end

let ev_done (t : t) (msg : Mq.message) ~duration_s ~io_bytes ~io_files =
  if Telemetry.enabled t.tm then begin
    let phase = phase_label msg.Mq.m_kind in
    let labels = [ ("phase", phase) ] in
    Telemetry.count t.tm ~labels "hoyan_subtasks_completed_total" 1;
    Telemetry.count t.tm ~labels "hoyan_subtask_io_bytes_total" io_bytes;
    Telemetry.count t.tm ~labels "hoyan_subtask_io_files_total" io_files;
    Telemetry.observe t.tm ~labels "hoyan_subtask_duration_seconds" duration_s;
    Telemetry.event t.tm "subtask.done"
      [
        ("id", Journal.S msg.Mq.m_id);
        ("phase", Journal.S phase);
        ("duration_s", Journal.F duration_s);
        ("io_bytes", Journal.I io_bytes);
        ("io_files", Journal.I io_files);
      ]
  end

let ev_failure (t : t) ~phase ~id ~attempt reason =
  if Telemetry.enabled t.tm then
    Telemetry.event t.tm "subtask.failure"
      [
        ("id", Journal.S id);
        ("phase", Journal.S phase);
        ("reason", Journal.S reason);
        ("attempt", Journal.I attempt);
      ]

(* ------------------------------------------------------------------ *)
(* Chaos-aware transport: uploads and message sends                    *)
(* ------------------------------------------------------------------ *)

(** Upload an object; the chaos plan may lose it right after the put
    (the write is accounted, the data is gone — exactly what a worker's
    subsequent get observes of a lost cloud object). *)
let chaos_put (t : t) ~key (o : Storage.obj) : unit =
  Storage.put t.storage ~key o;
  let gen = 1 + Option.value (Hashtbl.find_opt t.put_gens key) ~default:0 in
  Hashtbl.replace t.put_gens key gen;
  if Chaos.put_lost t.chaos ~key ~seq:gen then begin
    Storage.delete t.storage ~key;
    ev_chaos t Chaos.Storage_loss key
  end

(** Send a subtask message; the chaos plan may drop it (it never
    arrives — the monitor later finds the entry still [Pending] and
    re-sends) or duplicate it (the worker-side gate ignores the stale
    copy). *)
let chaos_push (t : t) (entry : Db.entry) (msg : Mq.message) : unit =
  let seq = Db.bump_sends entry in
  if Chaos.strikes t.chaos ~site:Chaos.Mq_drop ~key:msg.Mq.m_id ~seq then begin
    Mq.note_dropped t.mq;
    ev_chaos t Chaos.Mq_drop msg.Mq.m_id
  end
  else begin
    Mq.push t.mq msg;
    ev_enqueue t msg;
    if Chaos.strikes t.chaos ~site:Chaos.Mq_dup ~key:msg.Mq.m_id ~seq then begin
      Mq.push t.mq msg;
      Mq.note_duplicated t.mq;
      ev_chaos t Chaos.Mq_dup msg.Mq.m_id
    end
  end

(** Register a subtask: retain its input for possible re-upload, upload
    it, and send the first message. *)
let submit (t : t) ~id ~kind (input : Storage.obj)
    ~(range : (Ip.t * Ip.t) option) : unit =
  let input_key = id ^ ".in" in
  Hashtbl.replace t.inputs id (input_key, input);
  chaos_put t ~key:input_key input;
  let entry = Db.register t.db id in
  Db.set_range entry range;
  chaos_push t entry
    {
      Mq.m_id = id;
      m_kind = kind;
      m_input_key = input_key;
      m_snapshot = t.snapshot;
      m_attempt = 1;
    }

(* ------------------------------------------------------------------ *)
(* Worker-side helpers                                                 *)
(* ------------------------------------------------------------------ *)

(** The worker-side delivery gate: only [Pending] (first delivery or
    monitor re-send) and [Failed] (a duplicate arriving after a crashed
    attempt — a free retry) entries may run.  Deliveries for [Done],
    [Terminal] or still-[Running] entries are stale (MQ duplication, or
    a message for a stalled attempt) and are ignored. *)
let deliverable (t : t) (msg : Mq.message) (entry : Db.entry) : bool =
  match Db.status entry with
  | Db.Pending | Db.Failed _ -> true
  | Db.Done | Db.Terminal _ | Db.Running ->
      t.stats.ms_stale_msgs <- t.stats.ms_stale_msgs + 1;
      if Telemetry.enabled t.tm then begin
        Telemetry.count t.tm "hoyan_mq_stale_deliveries_total" 1;
        Telemetry.event t.tm "subtask.stale_message"
          [
            ("id", Journal.S msg.Mq.m_id);
            ("phase", Journal.S (phase_label msg.Mq.m_kind));
          ]
      end;
      false

(** Chaos preamble shared by both worker kinds: injected crash (the
    worker dies, the DB records the failure) or injected stall (the
    worker wedges without writing anything back; its lease is backdated
    so the monitor's next scan reclaims it).  Returns [true] when the
    attempt was killed. *)
let chaos_preempts (t : t) (msg : Mq.message) (entry : Db.entry) ~attempt :
    bool =
  if Chaos.strikes t.chaos ~site:Chaos.Crash ~key:msg.Mq.m_id ~seq:attempt
  then begin
    Db.record_failure entry "worker crashed";
    ev_chaos t Chaos.Crash msg.Mq.m_id;
    ev_failure t
      ~phase:(phase_label msg.Mq.m_kind)
      ~id:msg.Mq.m_id ~attempt "worker crashed";
    true
  end
  else if Chaos.strikes t.chaos ~site:Chaos.Stall ~key:msg.Mq.m_id ~seq:attempt
  then begin
    (* the stalled worker holds the subtask for (modelled) c_stall_s,
       longer than any lease: by the time the monitor scans, the lease
       has expired *)
    Db.expire_lease entry;
    ev_chaos t Chaos.Stall msg.Mq.m_id;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* The master's monitor loop                                           *)
(* ------------------------------------------------------------------ *)

let terminalize (t : t) ~phase ~id (entry : Db.entry) (reason : string) : unit
    =
  Db.mark_terminal entry reason;
  t.stats.ms_terminal <- t.stats.ms_terminal + 1;
  if Telemetry.enabled t.tm then begin
    Telemetry.count t.tm
      ~labels:[ ("phase", phase) ]
      "hoyan_subtask_terminal_total" 1;
    Telemetry.event t.tm "subtask.terminal_failure"
      [
        ("id", Journal.S id);
        ("phase", Journal.S phase);
        ("reason", Journal.S reason);
        ("attempts", Journal.I (Db.attempts entry));
      ]
  end

(** Re-queue a subtask (monitor side): back to [Pending], one more
    message through the chaos-aware send path. *)
let resend (t : t) ~kind ~id (entry : Db.entry) : unit =
  let input_key =
    match Hashtbl.find_opt t.inputs id with
    | Some (key, _) -> key
    | None -> id ^ ".in"
  in
  Db.requeue entry;
  t.stats.ms_resends <- t.stats.ms_resends + 1;
  if Telemetry.enabled t.tm then
    Telemetry.count t.tm
      ~labels:[ ("phase", phase_label kind) ]
      "hoyan_monitor_resends_total" 1;
  chaos_push t entry
    {
      Mq.m_id = id;
      m_kind = kind;
      m_input_key = input_key;
      m_snapshot = t.snapshot;
      m_attempt = Db.attempts entry + 1;
    }

(** A failed attempt: re-send with exponential backoff while the retry
    budget lasts, [Terminal] after.  "missing input object" additionally
    re-uploads the input from the split the master retained. *)
let retry_or_terminal (t : t) ~kind ~id (entry : Db.entry) (reason : string) :
    unit =
  let phase = phase_label kind in
  let attempts = Db.attempts entry in
  if attempts >= t.max_attempts then terminalize t ~phase ~id entry reason
  else begin
    if String.equal reason reason_missing_input then begin
      match Hashtbl.find_opt t.inputs id with
      | Some (input_key, obj) when not (Storage.mem t.storage ~key:input_key)
        ->
          chaos_put t ~key:input_key obj;
          t.stats.ms_reuploads <- t.stats.ms_reuploads + 1;
          if Telemetry.enabled t.tm then
            Telemetry.count t.tm "hoyan_monitor_reuploads_total" 1
      | _ -> ()
    end;
    let backoff =
      Float.min t.backoff_max_s
        (t.backoff_base_s *. (2. ** float_of_int (max 0 (attempts - 1))))
    in
    (* the backoff delay is modelled, not slept: it accumulates on the
       entry (and in the stats) the same way the store's I/O time is
       modelled rather than performed *)
    Db.add_backoff entry backoff;
    t.stats.ms_backoff_s <- t.stats.ms_backoff_s +. backoff;
    if Telemetry.enabled t.tm then
      Telemetry.event t.tm "subtask.retry"
        [
          ("id", Journal.S id);
          ("phase", Journal.S phase);
          ("attempt", Journal.I (attempts + 1));
          ("backoff_s", Journal.F backoff);
          ("reason", Journal.S reason);
        ];
    resend t ~kind ~id entry
  end

(** One monitor pass over the phase's subtasks (the queue is drained
    when this runs).  Detects and recovers:
    - [Failed] entries (worker crashes, missing objects): retry/terminal;
    - [Running] entries whose lease expired (worker died or stalled
      mid-subtask): reclaim, then retry/terminal;
    - [Pending] entries (their message was lost in flight): re-send
      without consuming an attempt;
    - [Done] entries whose result object has vanished: treat as a
      failure, never as a silently smaller merge.
    Returns the number of re-sends (callers drain again while > 0). *)
let monitor_scan (t : t) ~kind (ids : string list) : int =
  let t0 = Unix.gettimeofday () in
  let resent_before = t.stats.ms_resends in
  let phase = phase_label kind in
  List.iter
    (fun id ->
      let entry = Db.find_exn t.db id in
      match Db.status entry with
      | Db.Terminal _ -> ()
      | Db.Done -> (
          match Db.result_key entry with
          | Some key when Storage.mem t.storage ~key -> ()
          | _ ->
              Db.record_failure entry reason_missing_result;
              ev_failure t ~phase ~id ~attempt:(Db.attempts entry)
                reason_missing_result;
              retry_or_terminal t ~kind ~id entry reason_missing_result)
      | Db.Pending ->
          (* the message never arrived; the subtask never ran, so no
             attempt is consumed *)
          resend t ~kind ~id entry
      | Db.Running ->
          if Db.lease_expired ~now:t0 entry then begin
            t.stats.ms_lease_expired <- t.stats.ms_lease_expired + 1;
            if Telemetry.enabled t.tm then begin
              Telemetry.count t.tm
                ~labels:[ ("phase", phase) ]
                "hoyan_subtask_lease_expired_total" 1;
              Telemetry.event t.tm "subtask.lease_expired"
                [
                  ("id", Journal.S id);
                  ("phase", Journal.S phase);
                  ("attempt", Journal.I (Db.attempts entry));
                ]
            end;
            Db.record_failure entry "lease expired";
            retry_or_terminal t ~kind ~id entry "lease expired"
          end
          (* else: a live worker still holds the lease; leave it alone
             (cannot happen in the sequential driver, where the queue is
             drained before each scan) *)
      | Db.Failed reason -> retry_or_terminal t ~kind ~id entry reason)
    ids;
  t.stats.ms_scans <- t.stats.ms_scans + 1;
  t.stats.ms_scan_s <- t.stats.ms_scan_s +. (Unix.gettimeofday () -. t0);
  t.stats.ms_resends - resent_before

(** Drive a phase to a settled state: drain the queue with [worker_step],
    run a monitor scan, and repeat while the monitor re-sent anything.
    The round cap bounds pathological plans (e.g. an MQ that drops every
    message); whatever has not settled by then is made [Terminal] — a
    phase always terminates and always reports its losses. *)
let settle (t : t) ~kind ~ids ~(worker_step : unit -> bool) : unit =
  let max_rounds = (t.max_attempts * 8) + 8 in
  let rec go round =
    while worker_step () do
      ()
    done;
    let resent =
      Telemetry.with_span t.tm "master.monitor" (fun () ->
          monitor_scan t ~kind ids)
    in
    if resent > 0 && round < max_rounds then go (round + 1)
  in
  go 0;
  List.iter
    (fun id ->
      let entry = Db.find_exn t.db id in
      match Db.status entry with
      | Db.Done | Db.Terminal _ -> ()
      | s ->
          terminalize t ~phase:(phase_label kind) ~id entry
            (Printf.sprintf "monitor gave up (still %s after %d rounds)"
               (Db.status_to_string s) max_rounds))
    ids

(* ------------------------------------------------------------------ *)
(* Phase outcome contract                                              *)
(* ------------------------------------------------------------------ *)

type subtask_failure = {
  sf_id : string;
  sf_reason : string;
  sf_attempts : int;
}

let failure_to_string (f : subtask_failure) =
  Printf.sprintf "%s: %s (after %d attempt%s)" f.sf_id f.sf_reason
    f.sf_attempts
    (if f.sf_attempts = 1 then "" else "s")

(** Collect every subtask's result through one accounting path: a
    subtask either contributes its result object or appears in the
    failure list — there is no silent third outcome. *)
let collect_results (t : t) (ids : string list)
    ~(get : string -> 'a option) : 'a list * subtask_failure list =
  let results, failures =
    List.fold_left
      (fun (acc, fails) id ->
        let entry = Db.find_exn t.db id in
        let fail reason =
          ( acc,
            { sf_id = id; sf_reason = reason; sf_attempts = Db.attempts entry }
            :: fails )
        in
        match Db.status entry with
        | Db.Done -> (
            match Db.result_key entry with
            | None -> fail "completed without recording a result"
            | Some key -> (
                match get key with
                | Some v -> (v :: acc, fails)
                | None -> fail reason_missing_result))
        | Db.Terminal reason -> fail reason
        | s -> fail ("unsettled: " ^ Db.status_to_string s))
      ([], []) ids
  in
  (List.rev results, List.rev failures)

(* ------------------------------------------------------------------ *)
(* Route simulation phase                                              *)
(* ------------------------------------------------------------------ *)

type route_phase = {
  rp_subtasks : string list; (* subtask ids, in push order *)
  rp_rib : Rib.t; (* merged global RIB (incl. local tables) *)
  rp_durations : (string * float) list; (* measured compute seconds *)
  rp_ec_inputs : int; (* ECs actually simulated (summed over subtasks) *)
  rp_total_inputs : int;
  rp_failed : subtask_failure list; (* permanently-failed subtasks *)
  rp_complete : bool; (* every subtask's result was merged *)
  rp_resends : int; (* monitor re-sends during the phase *)
}

(** One worker step: consume a message and run the subtask.  Returns false
    when the queue is empty. *)
let route_worker_step (t : t) ~(use_ecs : bool) : bool =
  match Mq.pop t.mq with
  | None -> false
  | Some msg ->
      let entry = Db.find_exn t.db msg.Mq.m_id in
      if not (deliverable t msg entry) then true
      else begin
        let attempt = Db.start_attempt ~lease_s:t.lease_s entry in
        ev_dequeue t msg ~attempt;
        if chaos_preempts t msg entry ~attempt then true
        else begin
          match Storage.get t.storage ~key:msg.Mq.m_input_key with
          | Some (Storage.O_run run) ->
              let sp =
                Telemetry.span t.tm
                  ~args:[ ("id", msg.Mq.m_id); ("phase", "route") ]
                  "worker.step"
              in
              let t0 = Unix.gettimeofday () in
              (* the run originates its own keys' network statements,
                 aggregates and redistribution; the local tables are the
                 model's, merged by the master and the traffic workers *)
              let res =
                Route_sim.run ~tm:t.tm ~use_ecs ~include_locals:false
                  ~only:(Route_sim.owns t.model run.Route_sim.rn_keys)
                  ~domains:1 t.model ~input_routes:run.Route_sim.rn_routes ()
              in
              let dt = Unix.gettimeofday () -. t0 in
              let result_key = msg.Mq.m_id ^ ".rib" in
              chaos_put t ~key:result_key (Storage.O_rib res.Route_sim.rib);
              let io_bytes =
                List.length run.Route_sim.rn_routes * Storage.bytes_per_route
              in
              Db.complete entry ~result_key ~ec_count:res.Route_sim.ec_count
                ~duration_s:dt ~io_bytes ~io_files:1 ();
              Telemetry.finish t.tm sp;
              ev_done t msg ~duration_s:dt ~io_bytes ~io_files:1;
              true
          | _ ->
              Db.record_failure entry reason_missing_input;
              ev_failure t ~phase:"route" ~id:msg.Mq.m_id ~attempt
                reason_missing_input;
              true
        end
      end

(** Master + workers for the route phase (sequential execution with
    measured durations; the master's monitor loop recovers failures). *)
let run_route_phase ?(strategy = Split.Ordered) ?(subtasks = 100)
    ?(use_ecs = true) (t : t) ~(input_routes : Route.t list) : route_phase =
  let phase_sp =
    Telemetry.span t.tm
      ~args:[ ("inputs", string_of_int (List.length input_routes)) ]
      "route.phase"
  in
  let resends_before = t.stats.ms_resends in
  (* master: prepare subtasks, one run of whole shard keys each *)
  let runs =
    Telemetry.with_span t.tm "master.split" (fun () ->
        Route_sim.runs ~order:strategy ~n:subtasks t.model input_routes)
  in
  let upload_sp = Telemetry.span t.tm "master.upload" in
  let ids =
    List.mapi
      (fun i (run : Route_sim.run) ->
        let id = Printf.sprintf "route-%03d" i in
        submit t ~id ~kind:Mq.Route_subtask (Storage.O_run run)
          ~range:(Some run.Route_sim.rn_range);
        id)
      runs
  in
  Telemetry.finish t.tm
    ~args:[ ("subtasks", string_of_int (List.length ids)) ]
    upload_sp;
  (* workers drain the queue; the monitor re-sends failures until every
     subtask is Done or Terminal *)
  settle t ~kind:Mq.Route_subtask ~ids ~worker_step:(fun () ->
      route_worker_step t ~use_ecs);
  (* master: collect.  Every subtask either contributes its result file
     or is reported in [rp_failed]; the runs' keys are disjoint, so
     their rows are too *)
  let rib_chunks, failed =
    Telemetry.with_span t.tm "master.collect" (fun () ->
        collect_results t ids ~get:(fun key ->
            match Storage.get t.storage ~key with
            | Some (Storage.O_rib rows) -> Some rows
            | _ -> None))
  in
  let rib = Rib.union (Model.local_rib t.model :: rib_chunks) in
  let durations =
    List.map (fun id -> (id, Db.duration_s (Db.find_exn t.db id))) ids
  in
  let ec_inputs =
    List.fold_left
      (fun n id ->
        let e = Db.find_exn t.db id in
        match Db.status e with Db.Done -> n + Db.ec_count e | _ -> n)
      0 ids
  in
  Telemetry.gauge t.tm "hoyan_route_rib_rows"
    (float_of_int (Rib.length rib));
  Telemetry.finish t.tm phase_sp;
  {
    rp_subtasks = ids;
    rp_rib = rib;
    rp_durations = durations;
    rp_ec_inputs = ec_inputs;
    rp_total_inputs = List.length input_routes;
    rp_failed = failed;
    rp_complete = failed = [];
    rp_resends = t.stats.ms_resends - resends_before;
  }

(* ------------------------------------------------------------------ *)
(* Traffic simulation phase                                            *)
(* ------------------------------------------------------------------ *)

type dep_mode =
  | Deps_ordered (* load only overlapping route subtasks' RIB files *)
  | Deps_all (* baseline: load every RIB file *)

type traffic_phase = {
  tp_subtasks : string list;
  tp_link_load : (string * string, float) Hashtbl.t;
  tp_flows : Storage.flow_summary list;
  tp_durations : (string * float) list;
  tp_loaded_fracs : (string * float) list;
      (* fraction of RIB files each subtask loaded (Figure 5d) *)
  tp_ec_count : int; (* ECs actually simulated (summed over subtasks) *)
  tp_failed : subtask_failure list;
  tp_complete : bool;
  tp_resends : int;
}

let traffic_worker_step (t : t) ~(route_ids : string list)
    ~(dep_mode : dep_mode) ~(use_ecs : bool) ~(locals : Rib.t) : bool =
  match Mq.pop t.mq with
  | None -> false
  | Some msg ->
      let entry = Db.find_exn t.db msg.Mq.m_id in
      if not (deliverable t msg entry) then true
      else begin
        let attempt = Db.start_attempt ~lease_s:t.lease_s entry in
        ev_dequeue t msg ~attempt;
        if chaos_preempts t msg entry ~attempt then true
        else begin
          match Storage.get t.storage ~key:msg.Mq.m_input_key with
          | Some (Storage.O_flows flows) ->
              let sp =
                Telemetry.span t.tm
                  ~args:[ ("id", msg.Mq.m_id); ("phase", "traffic") ]
                  "worker.step"
              in
              (* dependency resolution via the subtask DB ranges *)
              let my_range = Db.range entry in
              let deps =
                match dep_mode with
                | Deps_all -> route_ids
                | Deps_ordered ->
                    List.filter
                      (fun rid ->
                        match (Db.range (Db.find_exn t.db rid), my_range) with
                        | Some rrange, Some frange ->
                            Split.ranges_overlap frange rrange
                        | _ -> true)
                      route_ids
              in
              Db.set_deps entry deps;
              (* load the dependent RIB files *)
              let io_bytes =
                ref (List.length flows * Storage.bytes_per_flow)
              in
              let rib =
                Rib.union
                  (locals
                  :: List.filter_map
                       (fun rid ->
                         match Db.result_key (Db.find_exn t.db rid) with
                         | Some key -> (
                             (match Storage.size_of t.storage ~key with
                             | Some sz -> io_bytes := !io_bytes + sz
                             | None -> ());
                             match Storage.get t.storage ~key with
                             | Some (Storage.O_rib rows) -> Some rows
                             | _ -> None)
                         | None -> None)
                       deps)
              in
              let t0 = Unix.gettimeofday () in
              let res =
                Traffic_sim.run ~tm:t.tm ~use_ecs t.model ~rib ~flows ()
              in
              let dt = Unix.gettimeofday () -. t0 in
              let flow_summaries =
                List.map
                  (fun (fr : Traffic_sim.flow_result) ->
                    {
                      Storage.fs_flow = fr.Traffic_sim.f_flow;
                      fs_paths =
                        List.map
                          (fun (p : Traffic_sim.path) ->
                            { Storage.fp_hops = p.Traffic_sim.hops;
                              fp_fraction = p.Traffic_sim.fraction })
                          fr.Traffic_sim.f_paths;
                      fs_delivered = fr.Traffic_sim.f_delivered;
                      fs_dropped = fr.Traffic_sim.f_dropped;
                      fs_looped = fr.Traffic_sim.f_looped;
                    })
                  res.Traffic_sim.flow_results
              in
              let loads =
                Hashtbl.fold
                  (fun k v acc -> (k, v) :: acc)
                  res.Traffic_sim.link_load []
              in
              let result_key = msg.Mq.m_id ^ ".out" in
              chaos_put t ~key:result_key
                (Storage.O_traffic
                   { t_loads = loads; t_flows = flow_summaries });
              let io_files = 1 + List.length deps in
              Db.complete entry ~result_key ~ec_count:res.Traffic_sim.ec_count
                ~duration_s:dt ~io_bytes:!io_bytes ~io_files ();
              Telemetry.finish t.tm sp;
              ev_done t msg ~duration_s:dt ~io_bytes:!io_bytes ~io_files;
              true
          | _ ->
              Db.record_failure entry reason_missing_input;
              ev_failure t ~phase:"traffic" ~id:msg.Mq.m_id ~attempt
                reason_missing_input;
              true
        end
      end

let run_traffic_phase ?(strategy = Split.Ordered) ?(subtasks = 128)
    ?(dep_mode = Deps_ordered) ?(use_ecs = true) (t : t)
    ~(route_phase : route_phase) ~(flows : Flow.t list) : traffic_phase =
  let phase_sp =
    Telemetry.span t.tm
      ~args:[ ("flows", string_of_int (List.length flows)) ]
      "traffic.phase"
  in
  let resends_before = t.stats.ms_resends in
  let route_ids = route_phase.rp_subtasks in
  let splits =
    Telemetry.with_span t.tm "master.split" (fun () ->
        Split.split_flows ~strategy ~subtasks flows)
  in
  let upload_sp = Telemetry.span t.tm "master.upload" in
  let ids =
    List.mapi
      (fun i (fs, range) ->
        let id = Printf.sprintf "traffic-%03d" i in
        submit t ~id ~kind:Mq.Traffic_subtask (Storage.O_flows fs)
          ~range:(Some range);
        id)
      splits
  in
  Telemetry.finish t.tm
    ~args:[ ("subtasks", string_of_int (List.length ids)) ]
    upload_sp;
  let locals = Model.local_rib t.model in
  settle t ~kind:Mq.Traffic_subtask ~ids ~worker_step:(fun () ->
      traffic_worker_step t ~route_ids ~dep_mode ~use_ecs ~locals);
  (* master: aggregate loads across subtasks, collect flows.  Every
     subtask either contributes its result file or is reported in
     [tp_failed]. *)
  let link_load = Hashtbl.create 1024 in
  let all_flows = ref [] in
  let chunks, failed =
    Telemetry.with_span t.tm "master.collect" (fun () ->
        collect_results t ids ~get:(fun key ->
            match Storage.get t.storage ~key with
            | Some (Storage.O_traffic { t_loads; t_flows }) ->
                Some (t_loads, t_flows)
            | _ -> None))
  in
  List.iter
    (fun (t_loads, t_flows) ->
      List.iter
        (fun (k, v) ->
          let cur = Option.value (Hashtbl.find_opt link_load k) ~default:0. in
          Hashtbl.replace link_load k (cur +. v))
        t_loads;
      all_flows := List.rev_append t_flows !all_flows)
    chunks;
  let ec_total =
    List.fold_left
      (fun n id ->
        let e = Db.find_exn t.db id in
        match Db.status e with Db.Done -> n + Db.ec_count e | _ -> n)
      0 ids
  in
  let n_route = float_of_int (List.length route_ids) in
  let loaded_fracs =
    List.map
      (fun id ->
        ( id,
          float_of_int (List.length (Db.deps (Db.find_exn t.db id))) /. n_route
        ))
      ids
  in
  if Telemetry.enabled t.tm then
    List.iter
      (fun (_, frac) ->
        Telemetry.observe t.tm "hoyan_traffic_loaded_rib_fraction" frac)
      loaded_fracs;
  Telemetry.finish t.tm phase_sp;
  {
    tp_subtasks = ids;
    tp_link_load = link_load;
    tp_flows = !all_flows;
    tp_durations =
      List.map (fun id -> (id, Db.duration_s (Db.find_exn t.db id))) ids;
    tp_loaded_fracs = loaded_fracs;
    tp_ec_count = ec_total;
    tp_failed = failed;
    tp_complete = failed = [];
    tp_resends = t.stats.ms_resends - resends_before;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(** One-line summary of the monitor's work (re-sends, recoveries,
    terminal failures, chaos accounting). *)
let monitor_report (t : t) : string =
  let s = t.stats in
  Printf.sprintf
    "monitor: %d scans (%.4fs), %d re-sends, %d lease expiries, %d \
     re-uploads, %d terminal, %d stale deliveries, %.2fs modelled backoff; \
     mq: %d dropped, %d duplicated"
    s.ms_scans s.ms_scan_s s.ms_resends s.ms_lease_expired s.ms_reuploads
    s.ms_terminal s.ms_stale_msgs s.ms_backoff_s (Mq.dropped t.mq)
    (Mq.duplicated t.mq)

(* ------------------------------------------------------------------ *)
(* End-to-end time via the schedule replay                             *)
(* ------------------------------------------------------------------ *)

(** Effective per-subtask wall times (compute + modelled I/O) of a list of
    subtask ids. *)
let effective_times ?(cost = Costmodel.default) (t : t) ids =
  List.map (fun id -> Costmodel.subtask_time cost (Db.find_exn t.db id)) ids

(** End-to-end time on [servers] workers for the given subtasks, including
    the master's preparation time. *)
let phase_time ?(cost = Costmodel.default) ?(policy = Schedule.Fifo) (t : t)
    ~servers ids =
  let times = effective_times ~cost t ids in
  let prep =
    float_of_int (List.length ids) *. cost.Costmodel.master_prep_per_subtask_s
  in
  prep +. fst (Schedule.makespan ~policy ~servers times)
