(** The subtask database (§3.2).

    Working servers update each subtask's running status here; the master
    monitors it and re-sends failed subtasks.  Route subtasks also record
    the range of addresses covered by their input routes, which is what a
    traffic subtask later consults to decide whether it depends on that
    route subtask's RIB file.

    Fault tolerance bookkeeping lives here too: every attempt carries a
    {e lease} (an absolute deadline by which the worker must have
    completed or failed), so a worker that dies mid-subtask without
    writing anything back is recovered by the master's monitor instead of
    wedging the phase; [Terminal] is the permanent-failure state a
    subtask enters once its retry budget is exhausted — the phase outcome
    contract reports such subtasks instead of silently merging without
    them.

    Entries are mutable but opaque: all reads and writes go through
    accessor functions, each of which takes the entry's own mutex — so
    one database can be shared by concurrent workers
    ({!Hoyan_sim.Parallel} domains) without races.  The table itself has
    a separate mutex for registration and lookup. *)

open Hoyan_net

type status =
  | Pending
  | Running
  | Done
  | Failed of string (* failed, retryable: the monitor may re-send *)
  | Terminal of string (* permanently failed: retry budget exhausted *)

let status_to_string = function
  | Pending -> "pending"
  | Running -> "running"
  | Done -> "done"
  | Failed m -> "failed: " ^ m
  | Terminal m -> "terminal: " ^ m

type entry = {
  e_mu : Mutex.t;
  mutable e_status : status;
  mutable e_range : (Ip.t * Ip.t) option; (* route subtasks: covered range *)
  mutable e_result_key : string option;
  mutable e_attempts : int;
  mutable e_sends : int; (* messages sent for this subtask (incl. re-sends) *)
  mutable e_lease_deadline : float option; (* current attempt's lease *)
  mutable e_backoff_s : float; (* accumulated modelled backoff delay *)
  mutable e_duration_s : float; (* measured compute time of the last run *)
  mutable e_io_bytes : int; (* bytes moved by the last run *)
  mutable e_io_files : int;
  mutable e_ec_count : int; (* ECs the last successful run simulated *)
  mutable e_deps : string list; (* traffic subtasks: route results loaded *)
}

type t = { mu : Mutex.t; tbl : (string, entry) Hashtbl.t }

let create () : t = { mu = Mutex.create (); tbl = Hashtbl.create 256 }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let register (t : t) id =
  let e =
    {
      e_mu = Mutex.create ();
      e_status = Pending;
      e_range = None;
      e_result_key = None;
      e_attempts = 0;
      e_sends = 0;
      e_lease_deadline = None;
      e_backoff_s = 0.;
      e_duration_s = 0.;
      e_io_bytes = 0;
      e_io_files = 0;
      e_ec_count = 0;
      e_deps = [];
    }
  in
  locked t.mu (fun () -> Hashtbl.replace t.tbl id e);
  e

let find (t : t) id = locked t.mu (fun () -> Hashtbl.find_opt t.tbl id)

let find_exn (t : t) id =
  match find t id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Db.find_exn: %s" id)

(* ------------------------------------------------------------------ *)
(* Entry accessors                                                     *)
(* ------------------------------------------------------------------ *)

let status (e : entry) = locked e.e_mu (fun () -> e.e_status)
let range (e : entry) = locked e.e_mu (fun () -> e.e_range)
let result_key (e : entry) = locked e.e_mu (fun () -> e.e_result_key)
let attempts (e : entry) = locked e.e_mu (fun () -> e.e_attempts)
let sends (e : entry) = locked e.e_mu (fun () -> e.e_sends)
let backoff_s (e : entry) = locked e.e_mu (fun () -> e.e_backoff_s)
let duration_s (e : entry) = locked e.e_mu (fun () -> e.e_duration_s)
let io_bytes (e : entry) = locked e.e_mu (fun () -> e.e_io_bytes)
let io_files (e : entry) = locked e.e_mu (fun () -> e.e_io_files)
let ec_count (e : entry) = locked e.e_mu (fun () -> e.e_ec_count)
let deps (e : entry) = locked e.e_mu (fun () -> e.e_deps)

let set_range (e : entry) r = locked e.e_mu (fun () -> e.e_range <- r)
let set_deps (e : entry) ds = locked e.e_mu (fun () -> e.e_deps <- ds)

(** Mark the entry [Running], bump its attempt counter and take a lease:
    the attempt must complete (or fail) before [now + lease_s], or the
    master's monitor reclaims it.  Returns the new attempt number. *)
let start_attempt ?(lease_s = 30.) (e : entry) : int =
  let deadline = Unix.gettimeofday () +. lease_s in
  locked e.e_mu (fun () ->
      e.e_status <- Running;
      e.e_attempts <- e.e_attempts + 1;
      e.e_lease_deadline <- Some deadline;
      e.e_attempts)

(** Count one message send for this subtask; returns the new send
    sequence number (1-based).  Chaos decisions key on it so a re-sent
    message gets a fresh fate. *)
let bump_sends (e : entry) : int =
  locked e.e_mu (fun () ->
      e.e_sends <- e.e_sends + 1;
      e.e_sends)

(** Backdate the current lease so it is already expired: how a stalled
    worker (one that will never write back) appears to the monitor. *)
let expire_lease (e : entry) : unit =
  locked e.e_mu (fun () ->
      e.e_lease_deadline <- Some (Unix.gettimeofday () -. 1.))

(** [Running] with a lease deadline in the past. *)
let lease_expired ~(now : float) (e : entry) : bool =
  locked e.e_mu (fun () ->
      match (e.e_status, e.e_lease_deadline) with
      | Running, Some d -> d < now
      | _ -> false)

let record_failure (e : entry) (reason : string) : unit =
  locked e.e_mu (fun () ->
      e.e_status <- Failed reason;
      e.e_lease_deadline <- None)

(** Permanent failure: the retry budget is exhausted; the monitor will
    not re-send and the phase reports the subtask as failed. *)
let mark_terminal (e : entry) (reason : string) : unit =
  locked e.e_mu (fun () ->
      e.e_status <- Terminal reason;
      e.e_lease_deadline <- None)

(** Back to [Pending]: the monitor re-queued the subtask (attempt and
    send counters are preserved). *)
let requeue (e : entry) : unit =
  locked e.e_mu (fun () ->
      e.e_status <- Pending;
      e.e_lease_deadline <- None)

(** Accumulate a modelled backoff delay before a re-send. *)
let add_backoff (e : entry) (s : float) : unit =
  locked e.e_mu (fun () -> e.e_backoff_s <- e.e_backoff_s +. s)

(** Record a finished run: measured compute time and accounted I/O (and
    the result file's key, when one was written); status becomes [Done]
    and the lease is released. *)
let complete (e : entry) ?result_key ?(ec_count = 0) ~duration_s ~io_bytes
    ~io_files () : unit =
  locked e.e_mu (fun () ->
      (match result_key with
      | Some _ -> e.e_result_key <- result_key
      | None -> ());
      e.e_duration_s <- duration_s;
      e.e_io_bytes <- io_bytes;
      e.e_io_files <- io_files;
      e.e_ec_count <- ec_count;
      e.e_lease_deadline <- None;
      e.e_status <- Done)

(* ------------------------------------------------------------------ *)
(* Table-level queries                                                 *)
(* ------------------------------------------------------------------ *)

let set_status (t : t) id s =
  let e = find_exn t id in
  locked e.e_mu (fun () -> e.e_status <- s)

let all (t : t) =
  locked t.mu (fun () ->
      Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.tbl [])

let count_status (t : t) pred =
  all t
  |> List.fold_left (fun n (_, e) -> if pred (status e) then n + 1 else n) 0

let all_done (t : t) =
  all t
  |> List.for_all (fun (_, e) ->
         match status e with Done -> true | _ -> false)

(** No subtask is still in flight: everything is [Done] or [Terminal]. *)
let all_settled (t : t) =
  all t
  |> List.for_all (fun (_, e) ->
         match status e with Done | Terminal _ -> true | _ -> false)
