(** Tracer: nestable timed spans emitting Chrome trace-event JSON.

    Spans are explicit handles (no implicit thread-local stack), so they
    compose with {!Hoyan_sim.Parallel} domains: open a span anywhere,
    close it wherever the work completes.  Completed spans are recorded
    as Chrome "complete" events with the recording domain's id as [tid];
    per-domain shards keep the hot path nearly contention-free and are
    merged on read. *)

type event = {
  te_name : string;
  te_ts_ns : int64;  (** span start, ns since process start *)
  te_dur_ns : int64;
  te_tid : int;  (** domain that finished the span *)
  te_args : (string * string) list;
}

type span

(** Handle returned when telemetry is disabled; finishing it is a no-op. *)
val null_span : span

type t

val create : unit -> t

(** Open a span (reads the clock; records nothing yet). *)
val start : ?args:(string * string) list -> string -> span

(** Close a span and record the completed event into the current
    domain's shard.  [args] are appended to the start-time args. *)
val finish : t -> ?args:(string * string) list -> span -> unit

(** All completed events, merged across shards, sorted by start time. *)
val events : t -> event list

val count : t -> int

(** The {v {"traceEvents": [...]} v} object chrome://tracing loads. *)
val to_json : t -> Json.t

(** Parse a trace back (the object form or a bare event array). *)
val events_of_json : Json.t -> (event list, string) result

val write_file : t -> string -> unit

type summary_row = {
  sr_name : string;
  sr_count : int;
  sr_total_ms : float;
  sr_mean_ms : float;
  sr_max_ms : float;
}

(** Aggregate by span name, sorted by total time descending. *)
val summarize : event list -> summary_row list

(** Aggregate by the value of the given arg key (e.g. subtask "id"). *)
val summarize_by_arg : string -> event list -> summary_row list
