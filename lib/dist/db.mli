(** The subtask database (paper §3.2): workers record each subtask's
    status, measured compute time and accounted I/O; the master monitors
    it and re-sends failed subtasks.  Route subtasks record the address
    range their inputs cover — the dependency test a traffic subtask
    later consults.

    Fault-tolerance bookkeeping: every attempt carries a lease deadline
    (a worker that dies mid-subtask is recovered when it expires), and
    [Terminal] is the permanent-failure state once the retry budget is
    exhausted — reported by the phase outcome contract, never silently
    dropped.

    Entries are opaque: reads and writes go through accessors, each
    protected by the entry's own mutex, so one database is safe to share
    across concurrent {!Hoyan_sim.Parallel} workers. *)

open Hoyan_net

type status =
  | Pending
  | Running
  | Done
  | Failed of string  (** failed, retryable: the monitor may re-send *)
  | Terminal of string  (** permanently failed: retry budget exhausted *)

val status_to_string : status -> string

type entry
type t

val create : unit -> t

(** Register a fresh [Pending] entry under the given subtask id. *)
val register : t -> string -> entry

val find : t -> string -> entry option

(** @raise Invalid_argument on an unknown id. *)
val find_exn : t -> string -> entry

(** {2 Entry reads} *)

val status : entry -> status
val range : entry -> (Ip.t * Ip.t) option
val result_key : entry -> string option
val attempts : entry -> int

(** Messages sent for this subtask, including monitor re-sends. *)
val sends : entry -> int

(** Accumulated modelled backoff delay across re-sends. *)
val backoff_s : entry -> float

(** Measured compute seconds of the last run. *)
val duration_s : entry -> float

val io_bytes : entry -> int
val io_files : entry -> int

(** ECs the last successful run actually simulated. *)
val ec_count : entry -> int

(** Traffic subtasks: the route result files loaded. *)
val deps : entry -> string list

(** {2 Entry writes} *)

val set_range : entry -> (Ip.t * Ip.t) option -> unit
val set_deps : entry -> string list -> unit

(** Mark [Running], bump the attempt counter and take a lease expiring
    [lease_s] (default 30) seconds from now; returns the new attempt
    number. *)
val start_attempt : ?lease_s:float -> entry -> int

(** Count one message send; returns the new 1-based send sequence
    number (chaos decisions key on it). *)
val bump_sends : entry -> int

(** Backdate the current lease so it is already expired — how a stalled
    worker appears to the master's monitor. *)
val expire_lease : entry -> unit

(** [Running] with a lease deadline before [now]. *)
val lease_expired : now:float -> entry -> bool

val record_failure : entry -> string -> unit

(** Permanent failure: the monitor will not re-send. *)
val mark_terminal : entry -> string -> unit

(** Back to [Pending] for a monitor re-send (counters preserved). *)
val requeue : entry -> unit

(** Accumulate a modelled backoff delay before a re-send. *)
val add_backoff : entry -> float -> unit

(** Record a finished run (measured compute, accounted I/O, the ECs
    simulated, optionally the result file's key); status becomes [Done]
    and the lease is released. *)
val complete :
  entry ->
  ?result_key:string ->
  ?ec_count:int ->
  duration_s:float ->
  io_bytes:int ->
  io_files:int ->
  unit ->
  unit

(** {2 Table-level queries} *)

val set_status : t -> string -> status -> unit
val all : t -> (string * entry) list
val count_status : t -> (status -> bool) -> int
val all_done : t -> bool

(** Everything is [Done] or [Terminal] — nothing still in flight. *)
val all_settled : t -> bool

