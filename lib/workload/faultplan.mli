(** Named chaos plans for fault-injection runs: seeded, deterministic
    {!Hoyan_dist.Chaos} configurations used by the CLI's [--chaos MODE]
    flag and the fault-injection test matrix. *)

(** The failure modes the matrix sweeps. *)
type mode =
  | Crashes  (** worker crashes mid-subtask *)
  | Storage_loss  (** uploaded objects vanish from the store *)
  | Mq_faults  (** messages lost in flight or delivered twice *)
  | Stalls  (** workers wedge until their lease expires *)
  | Mixed  (** all of the above, each at a quarter of the budget *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
val all_modes : mode list

(** [plan mode ~prob ~seed] builds the chaos plan for one matrix cell;
    [prob = 0.] yields {!Hoyan_dist.Chaos.none}. *)
val plan : ?seed:int -> prob:float -> mode -> Hoyan_dist.Chaos.t

(** The fault probabilities the test matrix sweeps: [0.0; 0.2; 0.5]. *)
val matrix_probs : float list
