(** Real multicore execution (OCaml 5 domains): an order-preserving
    parallel map.  The deterministic scheduler ({!Schedule}) is what the
    benchmarks use to obtain multi-server curves; this map runs work
    that is genuinely concurrent on one machine — the k-failure sweep's
    simulated representatives.  The compiled model is read-only during
    simulation, so workers share it. *)

(** The default worker count: one fewer than recommended, since the
    caller's domain works too; at least 1. *)
val default_domains : unit -> int

(** Parallel map preserving order.  [f] must only read shared state.
    If [f] raises, one raised exception is re-raised on the caller after
    all domains have been joined.

    Workers claim items one at a time from a single shared
    [Atomic.fetch_and_add] counter, so no cost estimate is needed: a
    worker that finishes a cheap item simply claims the next one.

    Each worker domain runs under one telemetry span ([parallel.domain],
    tagged with the worker index and the number of items it claimed);
    spans are recorded into per-domain shards, so tracing is safe across
    domains. *)
val map :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?domains:int ->
  ('a -> 'b) ->
  'a list ->
  'b list
