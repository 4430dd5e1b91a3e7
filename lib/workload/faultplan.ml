(** Named chaos plans for fault-injection runs.

    Each plan is a seeded {!Hoyan_dist.Chaos} configuration: the fault
    decisions it drives are pure functions of (seed, site, key,
    sequence), so a plan replays identically across runs and machines —
    a failure found under chaos can always be reproduced by name and
    seed.  Used by the CLI's [--chaos MODE] flag and the fault-injection
    test matrix. *)

module Chaos = Hoyan_dist.Chaos

(** The failure modes the matrix sweeps.  Each mode concentrates the
    whole probability budget on one injection site, so a run isolates
    that site's recovery path. *)
type mode =
  | Crashes  (** worker crashes mid-subtask *)
  | Storage_loss  (** uploaded objects vanish from the store *)
  | Mq_faults  (** messages lost in flight or delivered twice *)
  | Stalls  (** workers wedge until their lease expires *)
  | Mixed  (** all of the above, each at a quarter of the budget *)

let mode_to_string = function
  | Crashes -> "crashes"
  | Storage_loss -> "storage-loss"
  | Mq_faults -> "mq-faults"
  | Stalls -> "stalls"
  | Mixed -> "mixed"

let mode_of_string = function
  | "crashes" | "crash" -> Some Crashes
  | "storage-loss" | "storage" -> Some Storage_loss
  | "mq-faults" | "mq" -> Some Mq_faults
  | "stalls" | "stall" -> Some Stalls
  | "mixed" | "all" -> Some Mixed
  | _ -> None

let all_modes = [ Crashes; Storage_loss; Mq_faults; Stalls; Mixed ]

(** [plan mode ~prob ~seed] builds the chaos plan for one matrix cell:
    [prob] is the per-decision fault probability at the mode's site(s).
    [prob = 0.] yields {!Chaos.none} (the failure-free baseline the
    matrix compares against). *)
let plan ?(seed = 42) ~prob (mode : mode) : Chaos.t =
  if prob <= 0. then Chaos.none
  else
    match mode with
    | Crashes -> Chaos.make ~seed ~crash_prob:prob ()
    | Storage_loss -> Chaos.make ~seed ~storage_loss_prob:prob ()
    | Mq_faults ->
        (* split between loss and duplication: both ends of at-least- /
           at-most-once delivery get exercised *)
        Chaos.make ~seed ~mq_drop_prob:(prob /. 2.)
          ~mq_dup_prob:(prob /. 2.) ()
    | Stalls -> Chaos.make ~seed ~stall_prob:prob ()
    | Mixed ->
        let p = prob /. 4. in
        Chaos.make ~seed ~crash_prob:p ~storage_loss_prob:p
          ~mq_drop_prob:(p /. 2.) ~mq_dup_prob:(p /. 2.) ~stall_prob:p ()

(** The fault probabilities the test matrix sweeps. *)
let matrix_probs = [ 0.0; 0.2; 0.5 ]
