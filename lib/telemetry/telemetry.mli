(** The telemetry handle threaded through the simulation pipeline: a
    tracer, a metrics registry and an event journal behind one [enabled]
    flag.  With the default {!noop} handle every helper is a single
    branch that allocates nothing (asserted by the telemetry test suite).

    Hot call sites that would otherwise allocate an argument list should
    guard on {!enabled} before calling {!event}/{!count}. *)

type t = {
  enabled : bool;
  trace : Trace.t;
  metrics : Metrics.t;
  journal : Journal.t;
}

(** A live handle (fresh sinks, [enabled = true]). *)
val create : unit -> t

(** The disabled handle: all helpers return immediately. *)
val noop : t

val enabled : t -> bool

(** Install/read the process-global handle (default {!noop}); the
    default for every [?tm] parameter in the instrumented layers. *)
val set : t -> unit

val get : unit -> t

(** Open a span ({!Trace.null_span} when disabled). *)
val span : t -> ?args:(string * string) list -> string -> Trace.span

val finish : t -> ?args:(string * string) list -> Trace.span -> unit

(** Time [f] under a span; the span closes even if [f] raises. *)
val with_span :
  t -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

val count : t -> ?labels:Metrics.labels -> string -> int -> unit
val gauge : t -> ?labels:Metrics.labels -> string -> float -> unit

(** Histogram observation (e.g. a duration in seconds). *)
val observe : t -> ?labels:Metrics.labels -> string -> float -> unit

val event : t -> string -> (string * Journal.field) list -> unit
