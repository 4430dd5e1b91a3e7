(** The RCL intent verifier (Algorithm 1) with counter-example generation.

    Verification evaluates the intent against the concrete base and
    updated global RIBs.  For unsatisfied intents, the verifier pinpoints
    the exact failing sub-intent (with the [forall] group values and guard
    scope on the descent path) and outputs concrete related routes
    (§4.4: "RCL pinpoints the exact basic predicates that are violated
    and outputs related routes"). *)

open Hoyan_net

type violation = {
  v_path : string list; (* descent: forall bindings and guards, outermost first *)
  v_reason : string; (* which basic intent failed, and how *)
  v_routes : Route.t list; (* concrete counter-example rows (truncated) *)
}

let max_counterexample_routes = 10

type outcome = Satisfied | Violated of violation list

let truncate (rows : Route.t Seq.t) : Route.t list =
  List.of_seq (Seq.take max_counterexample_routes rows)

let rec pp_transform = function
  | Ast.T_pre -> "PRE"
  | Ast.T_post -> "POST"
  | Ast.T_filter (r, _) -> pp_transform r ^ "||(...)"

(** Collect violations of [g]; empty list means satisfied. *)
let rec check_intent (g : Ast.intent) ~(path : string list)
    ~(pre : Semantics.rib) ~(post : Semantics.rib) : violation list =
  match g with
  | Ast.G_rib_cmp (r1, eq, r2) ->
      let a = Semantics.eval_transform r1 ~pre ~post
      and b = Semantics.eval_transform r2 ~pre ~post in
      let equal = Semantics.rib_equal a b in
      if equal = eq then []
      else if eq then
        (* expected equal: the symmetric difference is the counterexample *)
        let only_a = Rib.diff a b and only_b = Rib.diff b a in
        [
          {
            v_path = List.rev path;
            v_reason =
              Printf.sprintf
                "%s = %s fails: %d routes only in the former, %d only in the latter"
                (pp_transform r1) (pp_transform r2) (Rib.length only_a)
                (Rib.length only_b);
            v_routes =
              truncate (Seq.append (Rib.to_seq only_a) (Rib.to_seq only_b));
          };
        ]
      else
        [
          {
            v_path = List.rev path;
            v_reason =
              Printf.sprintf "%s != %s fails: the two RIBs are identical"
                (pp_transform r1) (pp_transform r2);
            v_routes = truncate (Rib.to_seq a);
          };
        ]
  | Ast.G_eval_cmp (e1, op, e2) -> (
      match
        ( Semantics.eval_eval e1 ~pre ~post,
          Semantics.eval_eval e2 ~pre ~post )
      with
      | v1, v2 -> (
          match Value.cmp (Ast.cmp_op op) v1 v2 with
          | Some true -> []
          | Some false | None ->
              (* related routes: the transformed RIBs feeding either side *)
              let related e =
                let rec ribs_of = function
                  | Ast.E_val _ -> Seq.empty
                  | Ast.E_agg (r, _) ->
                      Rib.to_seq (Semantics.eval_transform r ~pre ~post)
                  | Ast.E_arith (a, _, b) -> Seq.append (ribs_of a) (ribs_of b)
                in
                ribs_of e
              in
              [
                {
                  v_path = List.rev path;
                  v_reason =
                    Printf.sprintf "comparison fails: %s %s %s"
                      (Value.to_string v1) (Ast.cmp_to_string op)
                      (Value.to_string v2);
                  v_routes = truncate (Seq.append (related e1) (related e2));
                };
              ])
      | exception Semantics.Eval_error msg ->
          [ { v_path = List.rev path; v_reason = msg; v_routes = [] } ])
  | Ast.G_guard (p, g) ->
      check_intent g
        ~path:("guard" :: path)
        ~pre:(Semantics.filter p pre)
        ~post:(Semantics.filter p post)
  | Ast.G_forall (field, g) ->
      List.concat_map
        (fun (v, (p, q)) ->
          check_intent g
            ~path:(Printf.sprintf "forall %s=%s" field (Value.to_string v) :: path)
            ~pre:p ~post:q)
        (Semantics.group_by field ~pre ~post)
  | Ast.G_forall_in (field, vals, g) ->
      List.concat_map
        (fun v ->
          check_intent g
            ~path:(Printf.sprintf "forall %s=%s" field (Value.to_string v) :: path)
            ~pre:(Semantics.filter_field_eq field v pre)
            ~post:(Semantics.filter_field_eq field v post))
        vals
  | Ast.G_and (a, b) ->
      check_intent a ~path ~pre ~post @ check_intent b ~path ~pre ~post
  | Ast.G_or (a, b) -> (
      match (check_intent a ~path ~pre ~post, check_intent b ~path ~pre ~post) with
      | [], _ | _, [] -> []
      | va, vb -> va @ vb)
  | Ast.G_imply (a, b) ->
      if Semantics.eval_intent a ~pre ~post then
        check_intent b ~path:("imply-consequent" :: path) ~pre ~post
      else []
  | Ast.G_not a ->
      if Semantics.eval_intent a ~pre ~post then
        [
          {
            v_path = List.rev path;
            v_reason = "negated intent holds";
            v_routes = [];
          };
        ]
      else []

(** Verify an intent against concrete base and updated global RIBs. *)
let check (g : Ast.intent) ~(base : Rib.t) ~(updated : Rib.t) : outcome =
  match check_intent g ~path:[] ~pre:base ~post:updated with
  | [] -> Satisfied
  | vs -> Violated vs

let check_spec (spec : string) ~base ~updated : (outcome, string) result =
  match Parser.parse spec with
  | Ok g -> Ok (check g ~base ~updated)
  | Error msg -> Error msg

let violation_to_string (v : violation) : string =
  let path = if v.v_path = [] then "" else String.concat " / " v.v_path ^ ": " in
  let routes =
    if v.v_routes = [] then ""
    else
      "\n"
      ^ String.concat "\n"
          (List.map (fun r -> "    " ^ Route.to_string r) v.v_routes)
  in
  path ^ v.v_reason ^ routes
