(** The snapshot store's unit of sharing: one pre-processed base —
    parsed model, filtered simulation inputs, and the {e converged} base
    state (global RIB and traffic result, normally lazy in
    {!Hoyan_core.Preprocess.base}) — registered once under a content
    digest and then shared {e read-only} across every request the server
    executes against it.

    Registration forces the base's lazy RIB/traffic exactly once, so no
    two requests ever race on the shared [Lazy.t] cells and every
    request pays only the incremental cost of its own change plan.  The
    one lazy left, [sn_inc], is forced by the server's drain loop, which
    runs one request at a time. *)

type t = {
  sn_digest : string;  (** hex content digest of the whole base *)
  sn_base : Hoyan_core.Preprocess.base;
      (** the shared base; its [b_rib]/[b_traffic] lazies are forced *)
  sn_devices : int;
  sn_input_routes : int;
  sn_flows : int;
  sn_rib_rows : int;  (** rows of the converged base RIB *)
  sn_converge_s : float;
      (** one-time cost of forcing the base RIB + traffic at
          registration *)
  sn_inc : Hoyan_sim.Incremental.ctx Lazy.t;
      (** the converged base captured for the incremental splice
          ({!Hoyan_sim.Incremental.capture} over the forced RIB);
          forced by the first [simulate] or [diff] request that
          splices *)
}

(** Content digest of a base: canonical rendering of every device
    config, the topology (devices and links), and the filtered input
    routes/flows.  Two bases with identical content digest identically
    regardless of construction order. *)
val digest_of_base : Hoyan_core.Preprocess.base -> string

(** Register a base under [digest] (its {!digest_of_base}, computed by
    the caller) and force its converged state.  Every call builds a
    fresh snapshot: deduplication on the digest is the server's
    ({!Hoyan_server.Server.register_snapshot}).  [tm] receives a
    [server.snapshot] span and registration gauges. *)
val register :
  ?tm:Hoyan_telemetry.Telemetry.t ->
  digest:string ->
  Hoyan_core.Preprocess.base ->
  t

(** A no-op: there is no process-global snapshot table any more.  Kept
    only because the benchmark harness still calls it; it goes with the
    next change to that harness. *)
val reset_registry : unit -> unit

(** One-line summary (digest prefix, sizes, convergence cost). *)
val to_string : t -> string
