(** The cloud object storage used by the distributed framework (§3.2).

    Each subtask's input is uploaded as a separate file; workers load
    their inputs (and, for traffic subtasks, the RIB result files of the
    route subtasks they depend on) and write their results back.  In this
    reproduction the store is in-memory but all transfers are accounted in
    bytes so the cost model can convert them into simulated I/O time —
    which is exactly what the ordering heuristic of §3.2 optimizes.

    All operations (including the read/write accounting) take the
    store's mutex, so one instance can be shared by concurrent
    {!Hoyan_sim.Parallel} workers. *)

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
  | O_run of Hoyan_sim.Route_sim.run (* a route subtask's input *)
  | O_flows of Flow.t list (* a traffic subtask's input *)
  | O_rib of Rib.t (* a route subtask's result (RIB rows) *)
  | O_traffic of {
      t_loads : ((string * string) * float) list;
      t_flows : flow_summary list;
    }

(* Approximate serialized sizes, for I/O accounting. *)
let bytes_per_route = 150
let bytes_per_flow = 60
let bytes_per_load_entry = 40

let obj_size = function
  | O_run r -> List.length r.Hoyan_sim.Route_sim.rn_routes * bytes_per_route
  | O_rib rs -> Rib.length rs * bytes_per_route
  | O_flows fs -> List.length fs * bytes_per_flow
  | O_traffic { t_loads; t_flows } ->
      (List.length t_loads * bytes_per_load_entry)
      + List.fold_left
          (fun n (f : flow_summary) ->
            n + bytes_per_flow + (List.length f.fs_paths * 32))
          0 t_flows

(** Accumulated transfer accounting (an immutable snapshot). *)
type stats = {
  bytes_written : int;
  bytes_read : int;
  files_written : int;
  files_read : int;
}

type t = {
  mu : Mutex.t;
  objects : (string, obj) Hashtbl.t;
  mutable st : stats;
}

let create () =
  {
    mu = Mutex.create ();
    objects = Hashtbl.create 256;
    st =
      { bytes_written = 0; bytes_read = 0; files_written = 0; files_read = 0 };
  }

let locked (t : t) f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let put (t : t) ~key (o : obj) =
  locked t (fun () ->
      Hashtbl.replace t.objects key o;
      t.st <-
        {
          t.st with
          bytes_written = t.st.bytes_written + obj_size o;
          files_written = t.st.files_written + 1;
        })

let get (t : t) ~key : obj option =
  locked t (fun () ->
      match Hashtbl.find_opt t.objects key with
      | Some o ->
          t.st <-
            {
              t.st with
              bytes_read = t.st.bytes_read + obj_size o;
              files_read = t.st.files_read + 1;
            };
          Some o
      | None -> None)

(** Remove an object (no accounting: the data vanishes rather than
    transfers).  Used by chaos injection to model object loss and by
    tests that delete a result file out from under the master. *)
let delete (t : t) ~key = locked t (fun () -> Hashtbl.remove t.objects key)

let size_of (t : t) ~key =
  locked t (fun () -> Option.map obj_size (Hashtbl.find_opt t.objects key))

let mem (t : t) ~key = locked t (fun () -> Hashtbl.mem t.objects key)

let keys (t : t) =
  locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.objects [])

let stats (t : t) = locked t (fun () -> t.st)
