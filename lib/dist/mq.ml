(** The message queue between the master and the working servers (§3.2).

    The master pushes one message per subtask (its metadata plus a
    reference to the subtask's input file on the object store); each
    message is consumed by exactly one working server listening on the
    queue.  Failed subtasks are re-queued by the master.

    All operations take the queue's mutex, so one instance can be shared
    by genuinely concurrent workers ({!Hoyan_sim.Parallel} domains): a
    message is delivered to exactly one popper. *)

type kind = Route_subtask | Traffic_subtask

let kind_to_string = function
  | Route_subtask -> "route"
  | Traffic_subtask -> "traffic"

type message = {
  m_id : string; (* subtask id, also the DB key *)
  m_kind : kind;
  m_input_key : string; (* input file on the object store *)
  m_snapshot : string; (* network snapshot reference *)
  m_attempt : int;
}

type t = {
  mu : Mutex.t;
  q : message Queue.t;
  mutable pushed : int;
  mutable consumed : int;
  mutable dropped : int; (* chaos: messages lost before delivery *)
  mutable duplicated : int; (* chaos: messages delivered twice *)
}

let create () =
  {
    mu = Mutex.create ();
    q = Queue.create ();
    pushed = 0;
    consumed = 0;
    dropped = 0;
    duplicated = 0;
  }

let locked (t : t) f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let push (t : t) (m : message) =
  locked t (fun () ->
      Queue.push m t.q;
      t.pushed <- t.pushed + 1)

let pop (t : t) : message option =
  locked t (fun () ->
      match Queue.take_opt t.q with
      | Some m ->
          t.consumed <- t.consumed + 1;
          Some m
      | None -> None)

(** Chaos accounting: a push the queue never saw (the message was lost
    in flight).  Counted so chaos runs can assert the fault actually
    fired. *)
let note_dropped (t : t) = locked t (fun () -> t.dropped <- t.dropped + 1)

(** Chaos accounting: a push that was delivered twice. *)
let note_duplicated (t : t) =
  locked t (fun () -> t.duplicated <- t.duplicated + 1)

let length (t : t) = locked t (fun () -> Queue.length t.q)
let is_empty (t : t) = locked t (fun () -> Queue.is_empty t.q)
let pushed (t : t) = locked t (fun () -> t.pushed)
let consumed (t : t) = locked t (fun () -> t.consumed)
let dropped (t : t) = locked t (fun () -> t.dropped)
let duplicated (t : t) = locked t (fun () -> t.duplicated)
