(** Evaluation rules of RCL (paper Figure 11 / Appendix A.2).

    An intent maps the pair (base RIB [pre], updated RIB [post]) to a
    Boolean; RIBs are canonical global RIBs ({!Hoyan_net.Rib.t}), so
    RIB equality is set equality, decided row for row. *)

open Hoyan_net

type rib = Rib.t

(** Route-predicate evaluation, staged: [eval_pred p] compiles [p]'s
    [matches] patterns once, and the closure it returns tests one row. *)
val eval_pred : Ast.pred -> Route.t -> bool

(** [filter p rib] keeps the rows satisfying [p] (the paper's
    {b filter}_p), in RIB order. *)
val filter : Ast.pred -> rib -> rib

val eval_transform : Ast.transform -> pre:rib -> post:rib -> rib

val eval_agg : Ast.agg -> rib -> Value.t

exception Eval_error of string

(** @raise Eval_error on ill-typed arithmetic (e.g. dividing sets). *)
val eval_eval : Ast.eval -> pre:rib -> post:rib -> Value.t

(** Set equality of two RIBs ({!Hoyan_net.Rib.equal}). *)
val rib_equal : rib -> rib -> bool

val filter_field_eq : string -> Value.t -> rib -> rib

(** Bucket both RIBs by a field's value in one pass — O(|pre|+|post|)
    rather than one filter per group, which matters at production RIB
    sizes (Figure 8).  Groups come in order of first appearance (pre,
    then post); each bucket keeps RIB order. *)
val group_by :
  string -> pre:rib -> post:rib -> (Value.t * (rib * rib)) list

(** Top-level intent evaluation. *)
val eval_intent : Ast.intent -> pre:rib -> post:rib -> bool
