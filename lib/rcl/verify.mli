(** The RCL intent verifier (paper Algorithm 1) with counter-example
    generation.

    Verification evaluates an intent against the concrete base and
    updated global RIBs produced by route simulation.  For unsatisfied
    intents, the verifier pinpoints the failing sub-intent (with the
    [forall] group values and guard scope on the descent path) and
    attaches concrete related routes (§4.4 of the paper). *)

open Hoyan_net

type violation = {
  v_path : string list;
      (** descent path: forall bindings and guards, outermost first *)
  v_reason : string;  (** which basic intent failed, and how *)
  v_routes : Route.t list;
      (** concrete counter-example rows, in RIB order (truncated) *)
}

(** Counter-example routes attached per violation are truncated to this
    many rows. *)
val max_counterexample_routes : int

type outcome = Satisfied | Violated of violation list

(** Verify a parsed intent against base and updated global RIBs. *)
val check : Ast.intent -> base:Rib.t -> updated:Rib.t -> outcome

(** Parse and verify a concrete-syntax specification; [Error] carries the
    parse error. *)
val check_spec :
  string ->
  base:Rib.t ->
  updated:Rib.t ->
  (outcome, string) result

val violation_to_string : violation -> string
