(** The message queue between the master and the working servers (paper
    §3.2): one message per subtask, consumed by exactly one worker;
    failed subtasks are re-queued by the master.

    Mutex-protected: one instance can be shared by concurrent
    {!Hoyan_sim.Parallel} domains, each message delivered to exactly one
    popper. *)

type kind = Route_subtask | Traffic_subtask

val kind_to_string : kind -> string

type message = {
  m_id : string;  (** subtask id, also the DB key *)
  m_kind : kind;
  m_input_key : string;  (** input file on the object store *)
  m_snapshot : string;  (** network snapshot reference *)
  m_attempt : int;
}

type t

val create : unit -> t
val push : t -> message -> unit
val pop : t -> message option
val length : t -> int
val is_empty : t -> bool

(** Messages pushed since creation (including re-sends). *)
val pushed : t -> int

(** Messages delivered to workers. *)
val consumed : t -> int

(** {2 Chaos accounting} (see {!Chaos}): counters for messages lost in
    flight or delivered twice, so fault-injection runs can assert the
    faults actually fired. *)

val note_dropped : t -> unit
val note_duplicated : t -> unit
val dropped : t -> int
val duplicated : t -> int
