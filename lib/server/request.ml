(* Typed verification requests, semantic cache keys, and the
   line-oriented transport (see the .mli for the grammar). *)

open Hoyan_net
module Cp = Hoyan_config.Change_plan
module Types = Hoyan_config.Types
module Printer = Hoyan_config.Printer
module Intents = Hoyan_core.Intents
module Differential = Hoyan_analysis.Differential
module Lint = Hoyan_analysis.Lint
module Smap = Types.Smap

type rq_class = Lint | Precheck | Simulate | Diff | Whatif

let class_to_string = function
  | Lint -> "lint"
  | Precheck -> "precheck"
  | Simulate -> "simulate"
  | Diff -> "diff"
  | Whatif -> "whatif"

let class_of_string = function
  | "lint" -> Some Lint
  | "precheck" -> Some Precheck
  | "simulate" -> Some Simulate
  | "diff" -> Some Diff
  | "whatif" -> Some Whatif
  | _ -> None

type failure_scope = Links_only | Devices_only | Links_and_devices

let scope_to_string = function
  | Links_only -> "links"
  | Devices_only -> "devices"
  | Links_and_devices -> "both"

let scope_of_string = function
  | "links" -> Some Links_only
  | "devices" -> Some Devices_only
  | "both" -> Some Links_and_devices
  | _ -> None

type t = {
  r_id : string;
  r_tenant : string;
  r_class : rq_class;
  r_snapshot : string option;
  r_plan : Cp.t;
  r_intents : Intents.t list;
  r_budget_s : float option;
  r_no_cache : bool;
  r_k : int;
  r_scope : failure_scope;
}

let make ?(tenant = "default") ?snapshot ?plan ?(intents = []) ?budget_s
    ?(no_cache = false) ?(k = 1) ?(scope = Links_only) ~id cls =
  {
    r_id = id;
    r_tenant = tenant;
    r_class = cls;
    r_snapshot = snapshot;
    r_plan = (match plan with Some p -> p | None -> Cp.make id);
    r_intents = intents;
    r_budget_s = budget_s;
    r_no_cache = no_cache;
    r_k = k;
    r_scope = scope;
  }

(* ------------------------------------------------------------------ *)
(* Semantic digests                                                    *)
(* ------------------------------------------------------------------ *)

let topo_op_render = function
  | Cp.Add_device d ->
      Printf.sprintf "add-device %s %s %d %s %s" d.Topology.name
        d.Topology.vendor d.Topology.asn
        (Ip.to_string d.Topology.router_id)
        d.Topology.region
  | Cp.Remove_device n -> "remove-device " ^ n
  | Cp.Add_link { la; la_if; lb; lb_if; l_bandwidth } ->
      Printf.sprintf "add-link %s/%s %s/%s %g" la la_if lb lb_if l_bandwidth
  | Cp.Remove_link { ra; rb } -> Printf.sprintf "remove-link %s %s" ra rb

let plan_digest (d : Differential.diff) : string =
  let cp = d.Differential.df_plan in
  let b = Buffer.create 4096 in
  (* topology ops in plan order: their order is observable *)
  List.iter
    (fun op ->
      Buffer.add_string b (topo_op_render op);
      Buffer.add_char b '\n')
    cp.Cp.cp_topo_ops;
  (* the plan's one application: per device a block targets (name
     order), its patched configuration and its blocks' application
     issues in plan order — everything Verify_request can observe of the
     blocks, nothing of their accidental spelling.  An unknown target
     (Table-6 "typo in router name") keys on its name and issue alone. *)
  let patched = d.Differential.df_patched_input.Lint.li_configs in
  let reports = List.map Cp.step_report d.Differential.df_steps in
  List.iter
    (fun dev ->
      (match Smap.find_opt dev patched with
      | Some cfg ->
          Buffer.add_string b ("device " ^ dev ^ "\n");
          Buffer.add_string b (Printer.print cfg)
      | None -> Buffer.add_string b ("unknown-device " ^ dev ^ "\n"));
      List.iter
        (fun (r : Cp.apply_report) ->
          if String.equal r.Cp.ar_device dev then
            List.iter
              (fun i ->
                Buffer.add_string b ("issue " ^ Cp.issue_to_string i ^ "\n"))
              r.Cp.ar_issues)
        reports)
    (List.sort_uniq String.compare
       (List.map (fun (r : Cp.apply_report) -> r.Cp.ar_device) reports));
  (* announced / withdrawn inputs, order-insensitive *)
  List.iter
    (fun s -> Buffer.add_string b ("new-route " ^ s ^ "\n"))
    (List.sort String.compare (List.map Route.to_string cp.Cp.cp_new_routes));
  List.iter
    (fun s -> Buffer.add_string b ("withdraw " ^ s ^ "\n"))
    (List.sort String.compare (List.map Prefix.to_string cp.Cp.cp_withdraw));
  Digest.to_hex (Digest.string (Buffer.contents b))

let intents_digest (intents : Intents.t list) : string =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (List.map Intents.to_string intents)))

(* The class segment of the cache key.  For [Whatif] the sweep's k and
   failure scope are part of the answer's identity. *)
let class_key (t : t) : string =
  match t.r_class with
  | Whatif ->
      Printf.sprintf "whatif-k%d-%s" t.r_k (scope_to_string t.r_scope)
  | c -> class_to_string c

let key ~snapshot_digest (d : Differential.diff) (t : t) : string =
  Printf.sprintf "%s/%s/%s/%s" snapshot_digest (class_key t) (plan_digest d)
    (intents_digest t.r_intents)

let cache_key ~snapshot_digest ~configs (t : t) : string =
  key ~snapshot_digest (Differential.diff (Lint.make configs) t.r_plan) t

(* ------------------------------------------------------------------ *)
(* Transport: parsing                                                  *)
(* ------------------------------------------------------------------ *)

let err line fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* intent reach present|absent PREFIX DEV[,DEV...] *)
let parse_reach line rest =
  match rest with
  | [ expect; prefix; devs ] -> (
      let expect_b =
        match expect with
        | "present" -> Some true
        | "absent" -> Some false
        | _ -> None
      in
      match expect_b with
      | None -> err line "intent reach: expected present|absent, got %S" expect
      | Some rr_expect -> (
          match Prefix.of_string prefix with
          | None -> err line "intent reach: bad prefix %S" prefix
          | Some rr_prefix ->
              let rr_devices =
                String.split_on_char ',' devs
                |> List.filter (fun d -> d <> "")
              in
              if rr_devices = [] then err line "intent reach: no devices"
              else Ok (Intents.Route_reach { rr_prefix; rr_devices; rr_expect })))
  | _ ->
      err line "intent reach: expected `present|absent PREFIX DEV[,DEV...]'"

type p_state = {
  ps_id : string;
  ps_class : rq_class;
  mutable ps_tenant : string;
  mutable ps_snapshot : string option;
  mutable ps_budget : float option;
  mutable ps_no_cache : bool;
  mutable ps_k : int;
  mutable ps_scope : failure_scope;
  mutable ps_commands : (string * string) list;  (* reversed *)
  mutable ps_withdraw : Prefix.t list;  (* reversed *)
  mutable ps_intents : Intents.t list;  (* reversed *)
}

let finish (ps : p_state) : t =
  {
    r_id = ps.ps_id;
    r_tenant = ps.ps_tenant;
    r_class = ps.ps_class;
    r_snapshot = ps.ps_snapshot;
    r_plan =
      Cp.make ps.ps_id
        ~commands:(List.rev ps.ps_commands)
        ~withdraw:(List.rev ps.ps_withdraw);
    r_intents = List.rev ps.ps_intents;
    r_budget_s = ps.ps_budget;
    r_no_cache = ps.ps_no_cache;
    r_k = ps.ps_k;
    r_scope = ps.ps_scope;
  }

let parse (text : string) : (t list, string) result =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc cur plan lines =
    match lines with
    | [] -> (
        match (cur, plan) with
        | None, _ -> Ok (List.rev acc)
        | Some _, Some (dev, _) ->
            err lineno "unterminated plan block for %s (missing end-plan)" dev
        | Some ps, None ->
            err lineno "unterminated request %s (missing end)" ps.ps_id)
    | raw :: rest -> (
        let lineno' = lineno + 1 in
        match (cur, plan) with
        | Some ps, Some (dev, blines) ->
            (* inside a plan block: verbatim until end-plan *)
            if String.trim raw = "end-plan" then begin
              ps.ps_commands <-
                (dev, String.concat "\n" (List.rev blines) ^ "\n")
                :: ps.ps_commands;
              go lineno' acc cur None rest
            end
            else go lineno' acc cur (Some (dev, raw :: blines)) rest
        | _, Some _ -> assert false
        | None, None -> (
            let line = String.trim raw in
            if line = "" || line.[0] = '#' then go lineno' acc None None rest
            else
              match split_ws line with
              | "request" :: id :: cls :: opts -> (
                  match class_of_string cls with
                  | None -> err lineno "unknown request class %S" cls
                  | Some c -> (
                      let ps =
                        {
                          ps_id = id;
                          ps_class = c;
                          ps_tenant = "default";
                          ps_snapshot = None;
                          ps_budget = None;
                          ps_no_cache = false;
                          ps_k = 1;
                          ps_scope = Links_only;
                          ps_commands = [];
                          ps_withdraw = [];
                          ps_intents = [];
                        }
                      in
                      let rec opt = function
                        | [] -> Ok ()
                        | "no-cache" :: rest ->
                            ps.ps_no_cache <- true;
                            opt rest
                        | o :: rest -> (
                            match String.index_opt o '=' with
                            | None -> err lineno "bad request option %S" o
                            | Some i -> (
                                let k = String.sub o 0 i in
                                let v =
                                  String.sub o (i + 1)
                                    (String.length o - i - 1)
                                in
                                match k with
                                | "tenant" ->
                                    ps.ps_tenant <- v;
                                    opt rest
                                | "snapshot" ->
                                    ps.ps_snapshot <- Some v;
                                    opt rest
                                | "budget" -> (
                                    match float_of_string_opt v with
                                    | Some f when f >= 0. ->
                                        ps.ps_budget <- Some f;
                                        opt rest
                                    | _ -> err lineno "bad budget %S" v)
                                | "k" -> (
                                    match int_of_string_opt v with
                                    | Some k when k >= 1 ->
                                        ps.ps_k <- k;
                                        opt rest
                                    | _ -> err lineno "bad k %S" v)
                                | "failures" -> (
                                    match scope_of_string v with
                                    | Some s ->
                                        ps.ps_scope <- s;
                                        opt rest
                                    | None ->
                                        err lineno
                                          "bad failures %S (links, devices \
                                           or both)"
                                          v)
                                | _ -> err lineno "unknown request option %S" k))
                      in
                      match opt opts with
                      | Error e -> Error e
                      | Ok () -> go lineno' acc (Some ps) None rest))
              | _ -> err lineno "expected `request ID CLASS ...', got %S" line)
        | Some ps, None -> (
            let line = String.trim raw in
            if line = "" || line.[0] = '#' then go lineno' acc cur None rest
            else if line = "end" then go lineno' (finish ps :: acc) None None rest
            else
              match split_ws line with
              | [ "plan"; dev ] -> go lineno' acc cur (Some (dev, [])) rest
              | [ "withdraw"; pfx ] -> (
                  match Prefix.of_string pfx with
                  | None -> err lineno "bad withdraw prefix %S" pfx
                  | Some p ->
                      ps.ps_withdraw <- p :: ps.ps_withdraw;
                      go lineno' acc cur None rest)
              | "intent" :: "rcl" :: _ ->
                  (* the RCL spec is the raw remainder of the line,
                     whitespace preserved *)
                  let marker = "intent rcl " in
                  let idx =
                    (* position of the spec within the *trimmed* line *)
                    String.length marker
                  in
                  let spec =
                    if String.length line > idx then
                      String.sub line idx (String.length line - idx)
                    else ""
                  in
                  if String.trim spec = "" then err lineno "empty RCL intent"
                  else begin
                    ps.ps_intents <-
                      Intents.Route_change spec :: ps.ps_intents;
                    go lineno' acc cur None rest
                  end
              | "intent" :: "reach" :: reach_rest -> (
                  match parse_reach lineno reach_rest with
                  | Error e -> Error e
                  | Ok i ->
                      ps.ps_intents <- i :: ps.ps_intents;
                      go lineno' acc cur None rest)
              | _ -> err lineno "unexpected line in request %s: %S" ps.ps_id line))
  in
  go 1 [] None None lines

(* ------------------------------------------------------------------ *)
(* Transport: printing                                                 *)
(* ------------------------------------------------------------------ *)

let print (t : t) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "request %s %s tenant=%s" t.r_id
       (class_to_string t.r_class) t.r_tenant);
  Option.iter
    (fun s -> Buffer.add_string b (Printf.sprintf " snapshot=%s" s))
    t.r_snapshot;
  Option.iter
    (fun f -> Buffer.add_string b (Printf.sprintf " budget=%g" f))
    t.r_budget_s;
  if t.r_class = Whatif then
    Buffer.add_string b
      (Printf.sprintf " k=%d failures=%s" t.r_k (scope_to_string t.r_scope));
  if t.r_no_cache then Buffer.add_string b " no-cache";
  Buffer.add_char b '\n';
  List.iter
    (fun (dev, block) ->
      Buffer.add_string b ("plan " ^ dev ^ "\n");
      (* blocks end with a newline by construction; emit verbatim *)
      Buffer.add_string b block;
      if block = "" || block.[String.length block - 1] <> '\n' then
        Buffer.add_char b '\n';
      Buffer.add_string b "end-plan\n")
    t.r_plan.Cp.cp_commands;
  List.iter
    (fun p ->
      Buffer.add_string b ("withdraw " ^ Prefix.to_string p ^ "\n"))
    t.r_plan.Cp.cp_withdraw;
  List.iter
    (fun intent ->
      match intent with
      | Intents.Route_change spec ->
          Buffer.add_string b ("intent rcl " ^ spec ^ "\n")
      | Intents.Route_reach { rr_prefix; rr_devices; rr_expect } ->
          Buffer.add_string b
            (Printf.sprintf "intent reach %s %s %s\n"
               (if rr_expect then "present" else "absent")
               (Prefix.to_string rr_prefix)
               (String.concat "," rr_devices))
      | other ->
          invalid_arg
            (Printf.sprintf
               "Request.print: intent %S has no transport syntax"
               (Intents.to_string other)))
    t.r_intents;
  Buffer.add_string b "end\n";
  Buffer.contents b
