(** Cost model converting measured subtask work into end-to-end time.

    Compute time is {e measured} (each subtask really runs); the I/O of
    loading inputs and RIB result files from the object store is
    {e modelled} from the accounted bytes/files, because the in-process
    store has no real network. *)

type t = {
  io_latency_per_file_s : float;  (** per-object request latency *)
  io_bytes_per_s : float;  (** object store throughput per worker *)
  master_prep_per_subtask_s : float;  (** subtask preparation by the master *)
}

(** Calibrated to the scaled-down workloads (see the .ml comment). *)
val default : t

(** Production-like object-store costs, for sensitivity runs. *)
val production_like : t

val io_time : t -> bytes:int -> files:int -> float

(** Effective wall time of one subtask on a worker: measured compute plus
    modelled I/O. *)
val subtask_time : t -> Db.entry -> float
