(** The distributed simulation framework (paper Figure 3).

    A master splits the inputs into subtasks, uploads each subtask's
    input to the object store and pushes one message per subtask into the
    MQ; workers consume messages, simulate, record status in the subtask
    DB and write result files back.  The master's monitor loop scans the
    DB between drains and re-sends failed subtasks — worker crashes,
    expired leases, lost messages and vanished objects — with exponential
    backoff until a bounded retry budget is exhausted, after which a
    subtask is [Terminal] and reported through the phase outcome contract
    ([rp_failed] / [tp_failed]): partial results are never merged
    silently.

    Failures are injected deterministically via a seeded {!Chaos} plan.

    Subtasks execute on the calling thread with their compute time
    measured; multi-server end-to-end times come from replaying the
    measured durations through {!Schedule} (see DESIGN.md §2). *)

open Hoyan_net

(** Counters accumulated by the master's monitor loop (mutable). *)
type monitor_stats = {
  mutable ms_scans : int;  (** monitor passes over the subtask DB *)
  mutable ms_scan_s : float;  (** wall time spent scanning *)
  mutable ms_resends : int;  (** subtasks re-sent to the MQ *)
  mutable ms_lease_expired : int;
      (** attempts reclaimed via lease expiry *)
  mutable ms_terminal : int;  (** subtasks permanently failed *)
  mutable ms_reuploads : int;
      (** inputs re-uploaded from the master's retained split *)
  mutable ms_backoff_s : float;  (** accumulated modelled backoff delay *)
  mutable ms_stale_msgs : int;  (** duplicate/stale deliveries ignored *)
}

type t = {
  storage : Storage.t;
  mq : Mq.t;
  db : Db.t;
  model : Hoyan_sim.Model.t;
  snapshot : string;
  chaos : Chaos.t;  (** seeded fault-injection plan *)
  lease_s : float;  (** per-attempt lease duration *)
  backoff_base_s : float;  (** first-retry backoff (doubles per attempt) *)
  backoff_max_s : float;
  max_attempts : int;
      (** execution attempts before a subtask goes [Terminal] *)
  inputs : (string, string * Storage.obj) Hashtbl.t;
  put_gens : (string, int) Hashtbl.t;
  stats : monitor_stats;
  tm : Hoyan_telemetry.Telemetry.t;
}

(** [create model] builds a framework instance.  [chaos] is the fault
    plan (default: no faults).  [lease_s], [backoff_base_s],
    [backoff_max_s] and [max_attempts] parameterize the monitor loop;
    [snapshot] names the network snapshot in the subtask messages; [tm]
    is the telemetry handle (defaults to the process-global one). *)
val create :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?chaos:Chaos.t ->
  ?lease_s:float ->
  ?backoff_base_s:float ->
  ?backoff_max_s:float ->
  ?max_attempts:int ->
  ?snapshot:string ->
  Hoyan_sim.Model.t ->
  t

(** {2 Phase outcome contract} *)

(** A permanently-failed subtask, as reported by a phase. *)
type subtask_failure = {
  sf_id : string;
  sf_reason : string;
  sf_attempts : int;
}

val failure_to_string : subtask_failure -> string

type route_phase = {
  rp_subtasks : string list;  (** subtask ids, in push order *)
  rp_rib : Rib.t;  (** merged global RIB (incl. local tables) *)
  rp_durations : (string * float) list;  (** measured compute seconds *)
  rp_ec_inputs : int;
      (** ECs actually simulated, summed over completed subtasks *)
  rp_total_inputs : int;
  rp_failed : subtask_failure list;
      (** permanently-failed subtasks; their results are NOT in [rp_rib] *)
  rp_complete : bool;  (** [rp_failed = []]: every result was merged *)
  rp_resends : int;  (** monitor re-sends during the phase *)
}

(** Master + workers for the route phase.  The master cuts the inputs
    into {!Hoyan_sim.Route_sim.runs} of whole shard keys, each recorded
    with its keys' address span; a worker runs [Route_sim.run ~only] over
    its run's keys, so it originates their network statements, aggregates
    and redistribution, and the master merges the runs with the model's
    local tables.  [strategy] picks the key order (the paper's ordering
    heuristic or the random baseline); [subtasks] is the most runs
    (paper: 100). *)
val run_route_phase :
  ?strategy:Split.strategy ->
  ?subtasks:int ->
  ?use_ecs:bool ->
  t ->
  input_routes:Route.t list ->
  route_phase

type dep_mode =
  | Deps_ordered  (** load only overlapping route subtasks' RIB files *)
  | Deps_all  (** baseline: load every RIB file *)

type traffic_phase = {
  tp_subtasks : string list;
  tp_link_load : (string * string, float) Hashtbl.t;
  tp_flows : Storage.flow_summary list;
  tp_durations : (string * float) list;
  tp_loaded_fracs : (string * float) list;
      (** fraction of RIB files each subtask loaded (Figure 5d) *)
  tp_ec_count : int;
      (** ECs actually simulated, summed over completed subtasks *)
  tp_failed : subtask_failure list;
  tp_complete : bool;
  tp_resends : int;
}

(** Master + workers for the traffic phase, consuming a completed route
    phase's result files (dependencies resolved through the subtask DB's
    recorded ranges; paper: 128 subtasks). *)
val run_traffic_phase :
  ?strategy:Split.strategy ->
  ?subtasks:int ->
  ?dep_mode:dep_mode ->
  ?use_ecs:bool ->
  t ->
  route_phase:route_phase ->
  flows:Flow.t list ->
  traffic_phase

(** One-line summary of the monitor's work (re-sends, lease expiries,
    terminal failures, chaos accounting). *)
val monitor_report : t -> string

(** Effective wall times (measured compute + modelled I/O) of subtasks. *)
val effective_times : ?cost:Costmodel.t -> t -> string list -> float list

(** End-to-end phase time on [servers] workers (MQ schedule replay plus
    the master's preparation time). *)
val phase_time :
  ?cost:Costmodel.t ->
  ?policy:Schedule.policy ->
  t ->
  servers:int ->
  string list ->
  float
