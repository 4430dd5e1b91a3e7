(** The verification server: a long-running request loop over shared
    immutable snapshots (DESIGN.md §2.8).

    One server owns a snapshot store ({!Snapshot}), a bounded request
    queue with admission control (global depth + per-tenant quota), a
    result cache ({!Cache}) keyed by (snapshot, plan, intent) digests,
    and per-request budgets: a request whose execution took longer than
    its budget is [Timeout] and its verdict is withheld (no partial
    verdicts, as in the distributed framework).

    Execution is the drain loop: {!drain} executes the queued requests
    in submission order, each through the single {!run_direct} path. *)

type config = {
  c_queue_depth : int;  (** admission bound on queued requests *)
  c_tenant_quota : int;  (** max queued requests per tenant *)
  c_cache_capacity : int;  (** result-cache entries (LRU beyond) *)
  c_default_budget_s : float;  (** budget when the request names none *)
}

(** depth 256, quota 64, cache 1024, budget 300s. *)
val default_config : config

type status =
  | Ok  (** executed; the verdict is PASS *)
  | Fail  (** executed; the verdict is FAIL *)
  | Rejected of string  (** admission refused it (reason) *)
  | Timeout  (** ran past its budget; verdict withheld *)
  | Error of string  (** execution raised *)

val status_to_string : status -> string

type response = {
  rs_seq : int;  (** global submission sequence number *)
  rs_id : string;
  rs_tenant : string;
  rs_class : Request.rq_class;
  rs_status : status;
  rs_body : string;
      (** deterministic verdict rendering (no timings, no request
          name): byte-identical for cached and uncached executions of
          the same request *)
  rs_cached : bool;
  rs_queue_s : float;  (** time spent queued *)
  rs_exec_s : float;  (** execution time (0 for rejected/cached) *)
}

(** Render a response for the output stream.  [timing:false] omits the
    latency fields (stable output for smoke tests). *)
val response_to_string : ?timing:bool -> response -> string

type stats = {
  st_submitted : int;
  st_admitted : int;
  st_rejected_queue : int;
  st_rejected_quota : int;
  st_rejected_snapshot : int;
  st_completed : int;
  st_failed : int;  (** completed with a FAIL verdict *)
  st_timeouts : int;
  st_errors : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_cache_evictions : int;
}

type t

val create : ?tm:Hoyan_telemetry.Telemetry.t -> ?config:config -> unit -> t

(** Register a base as a shared snapshot.  The first registration
    becomes the default target for requests that name no snapshot.
    The server's snapshot table is the one dedup: re-registering
    identical content costs one digest, returns the existing snapshot
    and counts [hoyan_server_snapshot_dedup_total]. *)
val register_snapshot : t -> Hoyan_core.Preprocess.base -> Snapshot.t

val find_snapshot : t -> string -> Snapshot.t option
val snapshots : t -> Snapshot.t list

(** Admission: [Ok ()] means queued; [Error response] is the terminal
    [Rejected] response (queue full, tenant over quota, or unknown
    snapshot). *)
val submit : t -> Request.t -> (unit, response) result

(** Number of requests currently queued. *)
val queue_depth : t -> int

(** Execute everything queued, in submission order, and return the
    responses in that order. *)
val drain : t -> response list

(** The single execution path.  The request's plan is applied once
    ({!Hoyan_core.Verify_request.prepare}, one
    {!Hoyan_analysis.Differential.diff}); then one match on the request
    class decides what runs on it.  [lint], [precheck], [simulate] and
    [diff] run {!Hoyan_core.Verify_request.execute} at the class's stage
    ([simulate] and [diff] with the [From_scratch] executor), rendered by
    {!Hoyan_core.Verify_request.body}; [whatif] runs the k-failure sweep
    of its one [intent reach present] stanza, rendered by
    {!Hoyan_core.Kfailure.body} (any other intent list is [Error]).
    Queue, cache and budgets are bypassed.  The server's executed
    responses are byte-identical to this — the server test suite and
    [--selfcheck] assert it.  The drain loop prepares each request the
    same way, keys the cache on that one diff ({!Request.key}) and, on a
    miss, runs the same dispatch on it, but
    [simulate] and [diff] carry the {!Hoyan_core.Verify_request.Splice}
    executor over the snapshot's captured context ({!Snapshot.sn_inc});
    the pipeline splices only when some intent is left after carry-over
    and the pre-check, and the server keeps nothing per plan.  No other
    class forces that context.  The incremental engine's splice
    contract is exactly what makes the identity hold. *)
val run_direct :
  Snapshot.t ->
  Request.t ->
  status * string

val stats : t -> stats

(** Human-readable one-shot summary (counts, cache, queue). *)
val report : t -> string
