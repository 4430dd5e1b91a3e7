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
          forced by the first request that splices or sweeps *)
}

(** Content digest of a base: canonical rendering of every device
    config, the topology (devices and links), and the filtered input
    routes/flows.  Two bases with identical content digest identically
    regardless of construction order. *)
val digest_of_base : Hoyan_core.Preprocess.base -> string

(** Register a base: compute its digest and force the converged state.
    Registration is deduplicated on the digest: a base whose digest is
    already registered returns the {e existing} snapshot without
    re-forcing anything (counted as
    [hoyan_server_snapshot_dedup_total]), so replayed or duplicate
    registrations cost one digest computation, not a re-convergence.
    [tm] receives a [server.snapshot] span and registration gauges. *)
val register :
  ?tm:Hoyan_telemetry.Telemetry.t -> Hoyan_core.Preprocess.base -> t

(** Drop all registered snapshots (tests only: makes registration
    behavior deterministic across test cases). *)
val reset_registry : unit -> unit

(** One-line summary (digest prefix, sizes, convergence cost). *)
val to_string : t -> string
