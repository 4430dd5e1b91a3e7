(** Tracer: nestable timed spans emitting Chrome trace-event JSON.

    Spans are explicit handles rather than an implicit thread-local
    stack, so a span can be opened before work is handed to a
    {!Hoyan_sim.Parallel} domain and closed wherever the work finishes.
    Completed spans are recorded as Chrome "complete" events (ph "X")
    with the recording domain's id as [tid] — loading the file in
    chrome://tracing or Perfetto shows one lane per domain.

    Completed events land in per-domain shards (slot = domain id mod
    shard count) so concurrent domains almost never contend on a lock;
    shards are merged on read. *)

type event = {
  te_name : string;
  te_ts_ns : int64; (* span start, ns since process start *)
  te_dur_ns : int64;
  te_tid : int; (* domain that finished the span *)
  te_args : (string * string) list;
}

type span = {
  sp_name : string;
  sp_start_ns : int64;
  sp_args : (string * string) list;
}

(** Handle returned when telemetry is disabled; finishing it is a no-op. *)
let null_span = { sp_name = ""; sp_start_ns = -1L; sp_args = [] }

let shard_count = 64

type shard = { sh_mu : Mutex.t; mutable sh_events : event list }

type t = { shards : shard array }

let create () =
  {
    shards =
      Array.init shard_count (fun _ ->
          { sh_mu = Mutex.create (); sh_events = [] });
  }

let start ?(args = []) (name : string) : span =
  { sp_name = name; sp_start_ns = Clock.now_ns (); sp_args = args }

(** Close a span: record the completed event into the current domain's
    shard.  [args] are appended to the span's start-time args (e.g. a
    result size known only at the end). *)
let finish (t : t) ?(args = []) (sp : span) : unit =
  if sp != null_span then begin
    let now = Clock.now_ns () in
    let tid = (Domain.self () :> int) in
    let ev =
      {
        te_name = sp.sp_name;
        te_ts_ns = sp.sp_start_ns;
        te_dur_ns = Int64.sub now sp.sp_start_ns;
        te_tid = tid;
        te_args = sp.sp_args @ args;
      }
    in
    let shard = t.shards.(tid mod shard_count) in
    Mutex.lock shard.sh_mu;
    shard.sh_events <- ev :: shard.sh_events;
    Mutex.unlock shard.sh_mu
  end

(** All completed events, merged across shards and sorted by start time
    (ties broken by name for a deterministic order). *)
let events (t : t) : event list =
  let all =
    Array.fold_left
      (fun acc shard ->
        Mutex.lock shard.sh_mu;
        let evs = shard.sh_events in
        Mutex.unlock shard.sh_mu;
        List.rev_append evs acc)
      [] t.shards
  in
  List.sort
    (fun a b ->
      let c = Int64.compare a.te_ts_ns b.te_ts_ns in
      if c <> 0 then c else String.compare a.te_name b.te_name)
    all

let count (t : t) = List.length (events t)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let event_to_json (ev : event) : Json.t =
  Json.Obj
    [
      ("name", Json.String ev.te_name);
      ("cat", Json.String "hoyan");
      ("ph", Json.String "X");
      ("ts", Json.Float (Clock.ns_to_us ev.te_ts_ns));
      ("dur", Json.Float (Clock.ns_to_us ev.te_dur_ns));
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.te_tid);
      ( "args",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ev.te_args) );
    ]

let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_to_json (events t)));
      ("displayTimeUnit", Json.String "ms");
    ]

let event_of_json (j : Json.t) : (event, string) result =
  let str key = Option.bind (Json.member key j) Json.to_string_opt in
  let num key = Option.bind (Json.member key j) Json.to_float_opt in
  match (str "name", num "ts", num "dur") with
  | Some name, Some ts, Some dur ->
      let tid =
        Option.value
          (Option.bind (Json.member "tid" j) Json.to_int_opt)
          ~default:0
      in
      let args =
        match Json.member "args" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (k, v) ->
                Option.map (fun s -> (k, s)) (Json.to_string_opt v))
              fields
        | _ -> []
      in
      Ok
        {
          te_name = name;
          te_ts_ns = Int64.of_float (ts *. 1e3);
          te_dur_ns = Int64.of_float (dur *. 1e3);
          te_tid = tid;
          te_args = args;
        }
  | _ -> Error "trace event missing name/ts/dur"

(** Parse a Chrome trace file's JSON back into events (both the
    {"traceEvents": [...]} object form this module writes and a bare
    event array are accepted). *)
let events_of_json (j : Json.t) : (event list, string) result =
  let items =
    match j with
    | Json.List xs -> Some xs
    | Json.Obj _ -> Option.bind (Json.member "traceEvents" j) Json.to_list
    | _ -> None
  in
  match items with
  | None -> Error "not a trace: expected an array or a traceEvents object"
  | Some xs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match event_of_json x with
            | Ok ev -> go (ev :: acc) rest
            | Error e -> Error e)
      in
      go [] xs

let write_file (t : t) (path : string) : unit =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Summaries (used by `hoyan trace summarize` and the tests)           *)
(* ------------------------------------------------------------------ *)

type summary_row = {
  sr_name : string;
  sr_count : int;
  sr_total_ms : float;
  sr_mean_ms : float;
  sr_max_ms : float;
}

(** Aggregate events by span name, sorted by total time descending. *)
let summarize (evs : event list) : summary_row list =
  let tbl : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun ev ->
      let ms = Clock.ns_to_ms ev.te_dur_ns in
      match Hashtbl.find_opt tbl ev.te_name with
      | Some (n, total, mx) ->
          incr n;
          total := !total +. ms;
          if ms > !mx then mx := ms
      | None -> Hashtbl.add tbl ev.te_name (ref 1, ref ms, ref ms))
    evs;
  Hashtbl.fold
    (fun name (n, total, mx) acc ->
      {
        sr_name = name;
        sr_count = !n;
        sr_total_ms = !total;
        sr_mean_ms = !total /. float_of_int !n;
        sr_max_ms = !mx;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         let c = Float.compare b.sr_total_ms a.sr_total_ms in
         if c <> 0 then c else String.compare a.sr_name b.sr_name)

(** Aggregate events carrying the given arg key (e.g. a subtask "id") by
    that arg's value, sorted by total time descending. *)
let summarize_by_arg (key : string) (evs : event list) : summary_row list =
  List.filter_map
    (fun ev ->
      Option.map
        (fun v -> { ev with te_name = v })
        (List.assoc_opt key ev.te_args))
    evs
  |> summarize
