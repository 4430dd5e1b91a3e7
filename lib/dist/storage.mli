(** The cloud object storage of the distributed framework (paper §3.2):
    an in-memory store whose transfers are all accounted in bytes and
    files, so the cost model can convert them into simulated I/O time.

    Mutex-protected (including the accounting), so one instance can be
    shared by concurrent {!Hoyan_sim.Parallel} workers. *)

open Hoyan_net

(** A delivered flow path with the volume fraction taking it. *)
type flow_path = { fp_hops : string list; fp_fraction : float }

type flow_summary = {
  fs_flow : Flow.t;
  fs_paths : flow_path list;
  fs_delivered : float;
  fs_dropped : float;
  fs_looped : float;
}

type obj =
  | O_run of Hoyan_sim.Route_sim.run
      (** a route subtask's input: its keys and their input routes *)
  | O_flows of Flow.t list  (** a traffic subtask's input *)
  | O_rib of Rib.t  (** a route subtask's result (RIB rows) *)
  | O_traffic of {
      t_loads : ((string * string) * float) list;
      t_flows : flow_summary list;
    }

(** Approximate serialized sizes, for I/O accounting. *)
val bytes_per_route : int

val bytes_per_flow : int
val bytes_per_load_entry : int
val obj_size : obj -> int

(** Accumulated transfer accounting (an immutable snapshot). *)
type stats = {
  bytes_written : int;
  bytes_read : int;
  files_written : int;
  files_read : int;
}

type t

val create : unit -> t

(** Upload: replaces any object under [key]; accounted as one written
    file of the object's size. *)
val put : t -> key:string -> obj -> unit

(** Download: accounted as one read file of the object's size. *)
val get : t -> key:string -> obj option

(** Remove an object (no accounting: the data vanishes rather than
    transfers).  Used by chaos injection to model object loss. *)
val delete : t -> key:string -> unit

(** Size without transferring (no accounting). *)
val size_of : t -> key:string -> int option

val mem : t -> key:string -> bool
val keys : t -> string list
val stats : t -> stats
