(** Real multicore execution (OCaml 5 domains): an order-preserving
    parallel map.  The deterministic scheduler ([Hoyan_dist.Schedule]) is
    what the benchmarks use to obtain multi-server curves; this map runs
    work that is genuinely concurrent on one machine: the prefix shards
    of a full route fixpoint ({!Route_sim.run}) and the k-failure
    sweep's simulated representatives.  The compiled model is read-only
    during simulation, so workers share it. *)

(** The default worker count: [Domain.recommended_domain_count ()].  The
    calling domain is one of {!map}'s workers, so an N-core machine runs
    N workers: the caller and N - 1 spawned domains. *)
val default_domains : unit -> int

(** Parallel map preserving order, on at most [domains] domains (the
    caller's included).  [f] must only read shared state.  If [f]
    raises, one raised exception is re-raised on the caller after all
    domains have been joined.

    Workers claim items one at a time from a single shared
    [Atomic.fetch_and_add] counter, so no cost estimate is needed: a
    worker that finishes a cheap item simply claims the next one.

    A [map] called from inside a worker (a full route fixpoint run by a
    sweep representative, say) runs sequentially on that worker's domain
    and spawns none: the outer map already holds the machine's cores.

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
