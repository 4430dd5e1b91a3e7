(** Cost model converting measured subtask work into end-to-end time.

    Compute time is {e measured} (each subtask really runs); the I/O of
    loading inputs and RIB result files from the object store is
    {e modelled} from the accounted bytes/files, because the in-process
    store has no real network.  The model is deliberately simple — a
    per-file latency plus throughput-limited transfer — since the paper's
    point is the relative cost of loading all RIB files versus a third of
    them (Figure 5b/5d), not absolute OSS numbers. *)

type t = {
  io_latency_per_file_s : float; (* per-object request latency *)
  io_bytes_per_s : float; (* object store throughput per worker *)
  master_prep_per_subtask_s : float; (* subtask preparation by the master *)
}

(* The defaults are calibrated to the scaled-down workloads: subtask
   compute here is ~100x smaller than production's, so the object-store
   costs are scaled by the same factor to preserve the paper's
   I/O-to-compute ratio (otherwise loading all RIB files would dwarf the
   simulation and exaggerate Figure 5(b)'s baseline penalty). *)
let default =
  {
    io_latency_per_file_s = 0.0001;
    io_bytes_per_s = 5e9;
    master_prep_per_subtask_s = 0.0005;
  }

(** Production-like object-store costs, for sensitivity runs. *)
let production_like =
  {
    io_latency_per_file_s = 0.02;
    io_bytes_per_s = 500e6;
    master_prep_per_subtask_s = 0.002;
  }

let io_time (t : t) ~bytes ~files =
  (float_of_int files *. t.io_latency_per_file_s)
  +. (float_of_int bytes /. t.io_bytes_per_s)

(** Effective wall time of one subtask on a worker. *)
let subtask_time (t : t) (e : Db.entry) =
  Db.duration_s e +. io_time t ~bytes:(Db.io_bytes e) ~files:(Db.io_files e)
