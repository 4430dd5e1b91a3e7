(** Evaluation rules of RCL (Figure 11 / Appendix A.2).

    An intent maps the pair (base RIB M, updated RIB N) to a Boolean.
    RIBs are canonical global RIBs ({!Rib.t}); RIB equality is set
    equality, which on canonical RIBs is row-for-row equality. *)

open Hoyan_net

type rib = Rib.t

(* --- route predicates --------------------------------------------------- *)

(* Staged: [eval_pred p] resolves the predicate once, compiling each
   [matches] pattern then, and the closure it returns tests rows. *)
let rec eval_pred (p : Ast.pred) : Route.t -> bool =
  match p with
  | Ast.P_cmp (field, op, v) -> (
      let op = Ast.cmp_op op in
      fun r ->
        match Value.cmp op (Fields.get field r) v with
        | Some b -> b
        | None -> false)
  | Ast.P_contains (field, v) -> (
      fun r ->
        match Fields.get field r with
        | Value.Set members -> List.exists (Value.equal v) members
        | fv -> Value.equal fv v)
  | Ast.P_in (field, vals) ->
      fun r ->
        let fv = Fields.get field r in
        List.exists (Value.equal fv) vals
  | Ast.P_matches (field, regex) -> (
      (* a malformed pattern never matches *)
      match Hoyan_regex.Regex.compile_opt regex with
      | None -> fun _ -> false
      | Some re -> (
          fun r ->
            match Fields.get field r with
            | Value.Str s -> Hoyan_regex.Regex.matches re s
            | Value.Num n ->
                Hoyan_regex.Regex.matches re (Value.to_string (Value.Num n))
            | Value.Set _ -> false))
  | Ast.P_and (a, b) ->
      let a = eval_pred a and b = eval_pred b in
      fun r -> a r && b r
  | Ast.P_or (a, b) ->
      let a = eval_pred a and b = eval_pred b in
      fun r -> a r || b r
  | Ast.P_imply (a, b) ->
      let a = eval_pred a and b = eval_pred b in
      fun r -> (not (a r)) || b r
  | Ast.P_not a ->
      let a = eval_pred a in
      fun r -> not (a r)

(* The device a predicate pins rows to: [device = "X"], alone or as a
   conjunct.  Such a filter reads only that device's chunk. *)
let rec pinned_device (p : Ast.pred) : string option =
  match p with
  | Ast.P_cmp ("device", Ast.Eq, Value.Str d) -> Some d
  | Ast.P_and (a, b) -> (
      match pinned_device a with Some d -> Some d | None -> pinned_device b)
  | _ -> None

let filter (p : Ast.pred) (rib : rib) : rib =
  match p with
  | Ast.P_cmp ("device", Ast.Eq, Value.Str d) -> Rib.device rib d
  | _ ->
      Rib.filter (eval_pred p)
        (match pinned_device p with Some d -> Rib.device rib d | None -> rib)

(* --- transformations ----------------------------------------------------- *)

let rec eval_transform (t : Ast.transform) ~(pre : rib) ~(post : rib) : rib =
  match t with
  | Ast.T_pre -> pre
  | Ast.T_post -> post
  | Ast.T_filter (r, p) -> filter p (eval_transform r ~pre ~post)

(* --- aggregates ----------------------------------------------------------- *)

let eval_agg (f : Ast.agg) (rib : rib) : Value.t =
  let values field = Rib.fold (fun r acc -> Fields.get field r :: acc) rib [] in
  match f with
  | Ast.Count -> Value.of_int (Rib.length rib)
  | Ast.Dist_cnt field ->
      Value.of_int
        (List.length (List.sort_uniq Value.compare_value (values field)))
  | Ast.Dist_vals field -> Value.set_of_list (List.rev (values field))

(* --- evaluations ------------------------------------------------------------ *)

exception Eval_error of string

let rec eval_eval (e : Ast.eval) ~(pre : rib) ~(post : rib) : Value.t =
  match e with
  | Ast.E_val v -> v
  | Ast.E_agg (r, f) -> eval_agg f (eval_transform r ~pre ~post)
  | Ast.E_arith (a, op, b) -> (
      let va = eval_eval a ~pre ~post and vb = eval_eval b ~pre ~post in
      match Value.arith (Ast.arith_op_tag op) va vb with
      | Some v -> v
      | None ->
          raise
            (Eval_error
               (Printf.sprintf "cannot compute %s %s %s" (Value.to_string va)
                  (Ast.arith_to_string op) (Value.to_string vb))))

(* --- RIB equality ------------------------------------------------------------ *)

let rib_equal = Rib.equal

(* --- intents -------------------------------------------------------------- *)

let filter_field_eq field v rib =
  match (field, v) with
  | "device", Value.Str d -> Rib.device rib d
  | _ -> Rib.filter (fun r -> Value.equal (Fields.get field r) v) rib

(** Bucket both RIBs by a field's value in one pass: the [forall]
    evaluation is O(|M|+|N|) instead of filtering per group value, which
    matters at production RIB sizes (Figure 8 measures verification over
    the full WAN).  By device, the buckets are the RIBs' own chunks:
    O(devices), no row read. *)
let group_by (field : string) ~(pre : rib) ~(post : rib) :
    (Value.t * (rib * rib)) list =
  let groups rib =
    if String.equal field "device" then
      List.map (fun (d, c) -> (Value.str d, c)) (Rib.by_device rib)
    else Rib.group_by (Fields.get field) rib
  in
  let gp = groups pre and gq = groups post in
  let tp = Hashtbl.of_seq (List.to_seq gp)
  and tq = Hashtbl.of_seq (List.to_seq gq) in
  let find t v = Option.value (Hashtbl.find_opt t v) ~default:Rib.empty in
  List.map (fun (v, p) -> (v, (p, find tq v))) gp
  @ List.filter_map
      (fun (v, q) -> if Hashtbl.mem tp v then None else Some (v, (Rib.empty, q)))
      gq

let rec eval_intent (g : Ast.intent) ~(pre : rib) ~(post : rib) : bool =
  match g with
  | Ast.G_rib_cmp (r1, eq, r2) ->
      let a = eval_transform r1 ~pre ~post
      and b = eval_transform r2 ~pre ~post in
      if eq then rib_equal a b else not (rib_equal a b)
  | Ast.G_eval_cmp (e1, op, e2) -> (
      let v1 = eval_eval e1 ~pre ~post and v2 = eval_eval e2 ~pre ~post in
      match Value.cmp (Ast.cmp_op op) v1 v2 with
      | Some b -> b
      | None -> false)
  | Ast.G_guard (p, g) ->
      eval_intent g ~pre:(filter p pre) ~post:(filter p post)
  | Ast.G_forall (field, g) ->
      List.for_all
        (fun (_, (p, q)) -> eval_intent g ~pre:p ~post:q)
        (group_by field ~pre ~post)
  | Ast.G_forall_in (field, vals, g) ->
      List.for_all
        (fun v ->
          eval_intent g
            ~pre:(filter_field_eq field v pre)
            ~post:(filter_field_eq field v post))
        vals
  | Ast.G_and (a, b) -> eval_intent a ~pre ~post && eval_intent b ~pre ~post
  | Ast.G_or (a, b) -> eval_intent a ~pre ~post || eval_intent b ~pre ~post
  | Ast.G_imply (a, b) ->
      (not (eval_intent a ~pre ~post)) || eval_intent b ~pre ~post
  | Ast.G_not a -> not (eval_intent a ~pre ~post)
