(** Typed verification requests and the server's file/stdin transport.

    A request names a {e class} (how far the pipeline runs — every
    class but [Whatif] is one {!Hoyan_core.Verify_request.stage} of
    {!Hoyan_core.Verify_request.run}), a change plan, intents, and
    per-request admission inputs (tenant, budget).

    {2 Cache keys}

    {!key} is the result-cache key: (snapshot digest, plan digest,
    intent digest, class).  The plan digest is {e semantic}: it hashes
    the request's one application of its plan, the
    {!Hoyan_analysis.Differential.diff} that the server's
    {!Hoyan_core.Verify_request.prepare} builds and the pipeline then
    reads.  It covers the {e patched} configurations of the targeted
    devices (plus the application issues, topology ops, announced routes
    and withdrawals), so two textually different plans with the same
    meaning (restatements, reordered prefix-list entries, duplicated
    blocks) digest identically and deduplicate in the cache: the
    differential's restatement-is-no-op property, lifted to the request
    layer.  The
    plan is applied once per request: the key, the lint pass and the
    pipeline all read that one diff.

    {2 Transport}

    Requests travel as a line-oriented text stream (no network
    dependency):

    {v
# comment
request ID CLASS [tenant=T] [budget=SECONDS] [snapshot=DIGEST] [no-cache]
plan DEVICE
<verbatim vendor command lines>
end-plan
withdraw PREFIX
intent rcl RCL-SPEC
intent reach present|absent PREFIX DEV[,DEV...]
end
    v}

    [CLASS] is one of [lint], [precheck], [simulate], [diff], [whatif].
    [plan], [withdraw] and [intent] stanzas repeat.

    A [whatif] request runs the exhaustive k-failure sweep
    ({!Hoyan_core.Kfailure}) over the snapshot base instead of the
    change pipeline: the property is the request's one intent, an
    [intent reach present] stanza, and the sweep is parameterized by
    the request options [k=K] (maximum simultaneous failures, default 1)
    and [failures=links|devices|both] (candidate scope, default links).
    Any other intent list, and any plan content ([plan] or [withdraw]
    stanzas), is an execution error. *)

type rq_class = Lint | Precheck | Simulate | Diff | Whatif

val class_to_string : rq_class -> string
val class_of_string : string -> rq_class option

(** Candidate-failure scope of a [whatif] sweep. *)
type failure_scope = Links_only | Devices_only | Links_and_devices

val scope_to_string : failure_scope -> string
val scope_of_string : string -> failure_scope option

type t = {
  r_id : string;
  r_tenant : string;
  r_class : rq_class;
  r_snapshot : string option;
      (** target snapshot digest; [None] = the server's default *)
  r_plan : Hoyan_config.Change_plan.t;
  r_intents : Hoyan_core.Intents.t list;
  r_budget_s : float option;
      (** execution budget in seconds; [None] = server default *)
  r_no_cache : bool;  (** bypass the result cache entirely *)
  r_k : int;  (** [whatif]: maximum simultaneous failures *)
  r_scope : failure_scope;  (** [whatif]: candidate-failure scope *)
}

val make :
  ?tenant:string ->
  ?snapshot:string ->
  ?plan:Hoyan_config.Change_plan.t ->
  ?intents:Hoyan_core.Intents.t list ->
  ?budget_s:float ->
  ?no_cache:bool ->
  ?k:int ->
  ?scope:failure_scope ->
  id:string ->
  rq_class ->
  t

(** Semantic digest of a plan's one application, its diff (see above).
    Stable across restatements; sensitive to anything
    {!Hoyan_core.Verify_request} could observe (patched configs,
    application issues, topology ops, new routes, withdrawals). *)
val plan_digest : Hoyan_analysis.Differential.diff -> string

(** In-order digest of the request's intents (intent order is
    observable in the verdict rendering, so it is {e not} sorted). *)
val intents_digest : Hoyan_core.Intents.t list -> string

(** The result-cache key of a request whose plan's one application is
    [d] (the server's {!Hoyan_core.Verify_request.prepare}):
    [snapshot-digest/class/plan-digest/intent-digest], where the class
    segment of a [whatif] request also carries its [k] and failure
    scope (they are part of the answer's identity). *)
val key :
  snapshot_digest:string -> Hoyan_analysis.Differential.diff -> t -> string

(** {!key} over a fresh diff of the request's plan against [configs].
    The server never calls it; it keeps the benchmark's cache-key probe
    and the tests' digest checks. *)
val cache_key :
  snapshot_digest:string ->
  configs:Hoyan_config.Types.t Hoyan_config.Types.Smap.t ->
  t ->
  string

(** Parse a request stream.  [Error] carries a 1-based line number and
    message. *)
val parse : string -> (t list, string) result

(** Render one request in the transport format ([parse] of the output
    round-trips). *)
val print : t -> string
