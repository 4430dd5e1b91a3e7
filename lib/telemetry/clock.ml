(** Monotonic process clock for the telemetry layer.

    The stdlib exposes no CLOCK_MONOTONIC; [Unix.gettimeofday] is wall
    time and may step backwards under clock adjustment.  Span durations
    must never be negative, so the reading is clamped through an atomic
    high-water mark, and it is strictly increasing across all domains:
    [gettimeofday] ticks in microseconds, and two spans read within one
    tick would otherwise share an endpoint, so a span that starts after
    another ends could appear to lie inside it.  A reading at or below
    the mark advances it by 1 ns.  (The CAS loop only retries under a
    concurrent advance, and telemetry reads the clock only on enabled
    paths.) *)

let t0 = Unix.gettimeofday ()
let last : int64 Atomic.t = Atomic.make 0L

(** Nanoseconds since process start; strictly increasing across
    domains. *)
let now_ns () : int64 =
  let raw = Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let rec clamp () =
    let prev = Atomic.get last in
    let next = if Int64.compare raw prev <= 0 then Int64.succ prev else raw in
    if Atomic.compare_and_set last prev next then next else clamp ()
  in
  clamp ()

let ns_to_us ns = Int64.to_float ns /. 1e3
let ns_to_ms ns = Int64.to_float ns /. 1e6
