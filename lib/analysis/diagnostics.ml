(** The unified diagnostics framework of the static-analysis subsystem.

    Every lint check reports through this module: a stable code
    ([HOY001]...), a severity, a kebab-case check name, a human message
    and a location (device, object, line in the device's rendered
    configuration).  Diagnostics render as one-line text for the CLI and
    as JSON for machine consumption; codes are append-only so downstream
    tooling can suppress or gate on them across versions. *)

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type location = {
  loc_device : string option;
  loc_object : string option; (* e.g. "route-policy RR_OUT node 20" *)
  loc_line : int option; (* 1-based, in the rendered config / command block *)
}

type t = {
  d_code : string;
  d_severity : severity;
  d_check : string;
  d_message : string;
  d_loc : location;
}

(* ------------------------------------------------------------------ *)
(* The check catalog (append-only; codes are stable across versions)   *)
(* ------------------------------------------------------------------ *)

let catalog : (string * string * severity * string) list =
  [
    ( "HOY001", "undefined-prefix-list", Error,
      "a route-policy match references a prefix list with no definition" );
    ( "HOY002", "undefined-community-list", Error,
      "a route-policy match references a community list with no definition" );
    ( "HOY003", "undefined-aspath-filter", Error,
      "a route-policy match references an as-path filter with no definition" );
    ( "HOY004", "undefined-route-policy", Error,
      "a BGP session, redistribution or VRF export references an undefined \
       route policy" );
    ( "HOY005", "undefined-acl", Error,
      "an interface or PBR rule references an ACL with no definition" );
    ( "HOY006", "ebgp-missing-policy", Warning,
      "an eBGP session has no import/export policy on a vendor whose \
       profile rejects updates without one (Table-5 'missing route \
       policy')" );
    ( "HOY007", "shadowed-policy-term", Warning,
      "a route-policy node can never match: an earlier node already \
       matches every route it would" );
    ( "HOY008", "shadowed-prefix-entry", Warning,
      "a prefix-list entry can never match: an earlier entry covers its \
       whole prefix/length range" );
    ( "HOY009", "invalid-aspath-regex", Error,
      "an as-path filter entry carries a regular expression that does not \
       compile" );
    ( "HOY010", "vrf-import-no-exporter", Warning,
      "a VRF imports a route target no VRF in the corpus exports" );
    ( "HOY011", "vrf-export-no-importer", Warning,
      "a VRF exports a route target no VRF in the corpus imports" );
    ( "HOY012", "plan-unknown-device", Error,
      "a change-plan command block or topology operation targets a device \
       that exists neither in the configs nor in the topology" );
    ( "HOY013", "plan-delete-error", Error,
      "a change-plan deletion command does not apply to the device's \
       configuration (object not found / malformed)" );
    ( "HOY014", "plan-parse-error", Error,
      "a change-plan command line does not parse in the target device's \
       vendor dialect" );
    ( "HOY015", "rcl-parse-error", Error,
      "an RCL specification does not parse (includes unknown field names)" );
    ( "HOY016", "rcl-field-type", Error,
      "an RCL predicate compares a field against a value of the wrong \
       type, or applies an operator the field's type does not admit" );
    ( "HOY017", "rcl-invalid-regex", Error,
      "an RCL 'matches' predicate carries a regular expression that does \
       not compile" );
    ( "HOY018", "rcl-unreachable-predicate", Warning,
      "an RCL conjunction constrains a field contradictorily and can \
       never hold" );
    ( "HOY019", "undefined-interface", Error,
      "a PBR rule or IS-IS stanza references an interface the device does \
       not define" );
    ( "HOY020", "bgp-session-unidirectional", Error,
      "a BGP neighbor stanza points at an address owned by a managed \
       device that has no reciprocal stanza back (half-configured \
       session)" );
    ( "HOY021", "bgp-session-as-mismatch", Error,
      "a BGP neighbor stanza's remote-as does not match the peer \
       device's configured local AS" );
    ( "HOY022", "redistribution-loop", Warning,
      "redistribution and VRF route-target edges form a cycle on one \
       device, so routes can be re-injected into the protocol or VRF \
       they came from" );
    ( "HOY023", "vrf-route-leak", Warning,
      "routes can leak across VRF or AS boundaries without any policy: a \
       cross-VRF route-target export carries no export policy, or a \
       device transits between distinct external ASes with neither \
       import nor export policies" );
    ( "HOY024", "dead-policy-term", Warning,
      "a route-policy node is dead under all inputs: the union of \
       earlier terminating nodes already covers every prefix the node \
       could match (generalises the pairwise shadowing check)" );
    ( "HOY025", "ibgp-propagation-gap", Warning,
      "the iBGP session graph of an AS cannot deliver routes from some \
       member to every other member (incomplete mesh / missing \
       route-reflector client coverage)" );
    ( "HOY026", "dangling-static-nexthop", Warning,
      "a static route's next hop is not on any connected subnet, not \
       covered by another route, and not a reachable managed device \
       address" );
    ( "HOY027", "bgp-session-family-mismatch", Error,
      "the two stanzas of a BGP session disagree on address family (one \
       side speaks IPv4, the other IPv6)" );
    ( "HOY028", "isis-adjacency-mismatch", Warning,
      "a physical link between two IS-IS enabled devices has IS-IS \
       configured on exactly one end, so no adjacency can form" );
    ( "HOY029", "intent-statically-refuted", Warning,
      "a reachability intent is refuted by the static control-plane \
       closure: no propagation path can deliver (or originate) the \
       expected route" );
    (* HOY030..HOY037: the differential change-impact pass (PR 7) *)
    ( "HOY030", "plan-semantic-noop", Warning,
      "a textually non-empty command block parses cleanly but leaves the \
       device's semantic config unchanged: the change re-states existing \
       configuration and will have no effect" );
    ( "HOY031", "plan-wrong-dialect", Warning,
      "most of a command block fails to parse in the target device's \
       dialect and the config comes out unchanged: the block was likely \
       written for the other vendor" );
    ( "HOY032", "plan-edits-dead-term", Warning,
      "the plan edits a route-policy term that is dead (shadowed by \
       earlier terms, HOY024) both before and after the change: the edit \
       cannot alter routing behaviour" );
    ( "HOY033", "plan-widens-ebgp-transit", Warning,
      "the change adds policy-less eBGP sessions until the device \
       transits between external ASes with neither import nor export \
       policies (on a vendor that accepts policy-less eBGP updates)" );
    ( "HOY034", "plan-breaks-session", Error,
      "the plan deletes a BGP neighbor stanza whose peer still points \
       back after the change: the session another device depends on is \
       left half-configured" );
    ( "HOY035", "plan-removes-origination", Warning,
      "the plan deletes the only origination (network statement or \
       static) of a prefix that the base control plane propagates to \
       other devices" );
    ( "HOY036", "plan-withdraws-unknown-prefix", Warning,
      "the plan withdraws a prefix that no monitored input route \
       announces: the withdrawal is a no-op (likely a typo)" );
    ( "HOY037", "plan-impact-summary", Info,
      "blast-radius summary of a propagating change: the devices and \
       prefix sets whose simulated state the plan can affect" );
  ]

let find_code code =
  List.find_opt (fun (c, _, _, _) -> String.equal c code) catalog

let check_of_code code =
  match find_code code with
  | Some (_, check, _, _) -> check
  | None -> invalid_arg (Printf.sprintf "Diagnostics.check_of_code: %s" code)

let severity_of_code code =
  match find_code code with
  | Some (_, _, sev, _) -> sev
  | None -> invalid_arg (Printf.sprintf "Diagnostics.severity_of_code: %s" code)

let code_of_check check =
  match List.find_opt (fun (_, c, _, _) -> String.equal c check) catalog with
  | Some (code, _, _, _) -> Some code
  | None -> None

(** Build a diagnostic for a cataloged code (severity and check name come
    from the catalog). *)
let make ~code ?device ?obj ?line fmt =
  Printf.ksprintf
    (fun msg ->
      {
        d_code = code;
        d_severity = severity_of_code code;
        d_check = check_of_code code;
        d_message = msg;
        d_loc = { loc_device = device; loc_object = obj; loc_line = line };
      })
    fmt

(* ------------------------------------------------------------------ *)
(* Ordering and rendering                                              *)
(* ------------------------------------------------------------------ *)

let compare_diag a b =
  let c = Int.compare (severity_rank a.d_severity) (severity_rank b.d_severity) in
  if c <> 0 then c
  else
    let dev = function None -> "" | Some d -> d in
    let c =
      String.compare (dev a.d_loc.loc_device) (dev b.d_loc.loc_device)
    in
    if c <> 0 then c
    else
      let c = String.compare a.d_code b.d_code in
      if c <> 0 then c
      else
        Stdlib.compare
          (a.d_loc.loc_line, a.d_message)
          (b.d_loc.loc_line, b.d_message)

let location_to_string loc =
  match (loc.loc_device, loc.loc_line) with
  | Some d, Some l -> Printf.sprintf "%s:%d" d l
  | Some d, None -> d
  | None, Some l -> Printf.sprintf "<input>:%d" l
  | None, None -> "-"

let to_string d =
  let obj =
    match d.d_loc.loc_object with None -> "" | Some o -> Printf.sprintf " (%s)" o
  in
  Printf.sprintf "%s %-7s %s [%s] %s%s" d.d_code
    (severity_to_string d.d_severity)
    (location_to_string d.d_loc)
    d.d_check d.d_message obj

let count sev ds = List.length (List.filter (fun d -> d.d_severity = sev) ds)

let summary ds =
  Printf.sprintf "%d error(s), %d warning(s), %d info" (count Error ds)
    (count Warning ds) (count Info ds)

(* ------------------------------------------------------------------ *)
(* JSON rendering (no external dependency)                             *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let field k v = Printf.sprintf "\"%s\": %s" k v in
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  let opt_str k = function None -> [] | Some v -> [ field k (str v) ] in
  let opt_int k = function
    | None -> []
    | Some v -> [ field k (string_of_int v) ]
  in
  let fields =
    [
      field "code" (str d.d_code);
      field "severity" (str (severity_to_string d.d_severity));
      field "check" (str d.d_check);
      field "message" (str d.d_message);
    ]
    @ opt_str "device" d.d_loc.loc_device
    @ opt_str "object" d.d_loc.loc_object
    @ opt_int "line" d.d_loc.loc_line
  in
  "{" ^ String.concat ", " fields ^ "}"

(** Render a diagnostic list as one JSON document with per-severity
    counts — the `hoyan lint --json` output format. *)
let list_to_json ds =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"diagnostics\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (to_json d))
    ds;
  if ds <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"counts\": {\"error\": %d, \"warning\": %d, \"info\": %d}\n}\n"
       (count Error ds) (count Warning ds) (count Info ds));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Baselines and the exit-code contract                                *)
(* ------------------------------------------------------------------ *)

(** Stable identity of a finding for baseline matching.  Deliberately
    excludes the message text and line number: both shift under
    unrelated edits, while code + device + object pin down the same
    logical finding across runs. *)
let key d =
  let part = function None -> "" | Some s -> s in
  Printf.sprintf "%s|%s|%s" d.d_code
    (part d.d_loc.loc_device)
    (part d.d_loc.loc_object)

(** The baseline file format version written by {!to_baseline}.
    Version 1 files (no [version] directive) are still accepted by
    {!parse_baseline}; version 2 added the explicit directive so future
    key-format changes can be detected instead of silently mismatching. *)
let baseline_version = 2

(** Render diagnostics as a baseline file: a [version] directive, then
    one {!key} per line, sorted and deduplicated, with a comment header.
    Re-recording a baseline on an unchanged corpus yields a
    byte-identical file. *)
let to_baseline ds =
  let keys = List.sort_uniq String.compare (List.map key ds) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "# hoyan lint baseline: one suppressed finding per line\n";
  Buffer.add_string buf "# format: CODE|device|object\n";
  Buffer.add_string buf (Printf.sprintf "version %d\n" baseline_version);
  List.iter
    (fun k ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\n')
    keys;
  Buffer.contents buf

(** Parse baseline file contents into the set of suppressed keys.
    Blank lines and [#] comments are ignored; a [version N] directive is
    validated (an unknown future version raises [Invalid_argument]
    rather than silently suppressing the wrong findings).  Files without
    the directive are treated as version 1. *)
let parse_baseline contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | [ "version"; v ] ->
               (match int_of_string_opt v with
               | Some n when n >= 1 && n <= baseline_version -> None
               | _ ->
                   invalid_arg
                     (Printf.sprintf
                        "Diagnostics.parse_baseline: unsupported baseline \
                         version %s (this build writes version %d)"
                        v baseline_version))
           | _ -> Some line)

(** Drop diagnostics whose {!key} appears in the baseline. *)
let apply_baseline ~baseline ds =
  let suppressed = List.sort_uniq String.compare baseline in
  List.filter
    (fun d -> not (List.mem (key d) suppressed))
    ds

(** The CLI exit-code contract shared by [hoyan lint] and
    [hoyan analyze]: 2 if any error survives, 1 if more than
    [max_warnings] warnings survive, 0 otherwise. *)
let exit_code ?(max_warnings = 0) ds =
  if count Error ds > 0 then 2
  else if count Warning ds > max_warnings then 1
  else 0
