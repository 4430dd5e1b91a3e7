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

    Scheduling is chunked work-stealing rather than a single shared
    counter: each worker starts with a contiguous claim range sized by
    {!Costmodel.chunk_plan} from the optional per-item [weights]
    (defaulting to uniform), claims chunks from the front of its own
    range, and when drained steals the back half of the fullest peer
    range.  Workers therefore touch the shared atomics once per chunk
    instead of once per item, and estimation error in the weights is
    corrected at runtime by the steals.

    Each worker domain runs under one telemetry span ([parallel.domain],
    tagged with the worker index and the number of items it claimed);
    spans are recorded into per-domain shards, so tracing is safe across
    domains. *)
val map :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  ?domains:int ->
  ?weights:float array ->
  ('a -> 'b) ->
  'a list ->
  'b list
