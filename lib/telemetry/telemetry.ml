(** The telemetry handle threaded through the simulation pipeline.

    A [t] bundles the three sinks — tracer ({!Trace}), metrics registry
    ({!Metrics}) and event journal ({!Journal}) — behind one [enabled]
    flag.  Every helper here checks that flag first, so with the default
    {!noop} handle the whole layer costs a single branch per
    instrumentation site, allocation-free (asserted by the telemetry
    test suite).

    Instrumented code reads the process-global handle ({!get}, an
    atomic, default {!noop}) unless an explicit handle is passed; the
    CLI installs a live handle with {!set} when `--trace`/`--metrics`/
    `--journal` are given.  Hot call sites that would otherwise build an
    argument list should guard on {!enabled} themselves:

    {[ if Telemetry.enabled tm then
         Telemetry.event tm "bgp.round" [ ("round", Journal.I n) ] ]} *)

type t = {
  enabled : bool;
  trace : Trace.t;
  metrics : Metrics.t;
  journal : Journal.t;
}

let create () =
  {
    enabled = true;
    trace = Trace.create ();
    metrics = Metrics.create ();
    journal = Journal.create ();
  }

(** The disabled handle: all helpers return immediately.  Its sinks are
    never written (shared safely by everyone). *)
let noop =
  {
    enabled = false;
    trace = Trace.create ();
    metrics = Metrics.create ();
    journal = Journal.create ();
  }

let enabled t = t.enabled

(* the process-global handle; an Atomic so Parallel domains read it
   safely (it is set before simulation starts, not during) *)
let global : t Atomic.t = Atomic.make noop

let set tm = Atomic.set global tm
let get () = Atomic.get global

(* ------------------------------------------------------------------ *)
(* Guarded helpers                                                     *)
(* ------------------------------------------------------------------ *)

let span (t : t) ?args name : Trace.span =
  if t.enabled then Trace.start ?args name else Trace.null_span

let finish (t : t) ?args (sp : Trace.span) : unit =
  if t.enabled then Trace.finish t.trace ?args sp

(** Time [f] under a span; the span closes even if [f] raises. *)
let with_span (t : t) ?args name (f : unit -> 'a) : 'a =
  if not t.enabled then f ()
  else begin
    let sp = Trace.start ?args name in
    Fun.protect ~finally:(fun () -> Trace.finish t.trace sp) f
  end

let count (t : t) ?labels name n : unit =
  if t.enabled then Metrics.incr t.metrics ?labels name n

let gauge (t : t) ?labels name v : unit =
  if t.enabled then Metrics.gauge_set t.metrics ?labels name v

let observe (t : t) ?labels name v : unit =
  if t.enabled then Metrics.observe t.metrics ?labels name v

let event (t : t) name fields : unit =
  if t.enabled then Journal.event t.journal name fields
