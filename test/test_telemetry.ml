(* Tests for the telemetry subsystem: JSON emit/parse, trace round trip,
   metrics registry (domain-shard merge, Prometheus rendering), journal
   ordering, the noop handle, and the instrumented pipeline (deterministic
   counters/events on a fixed workload, retry telemetry, verify-request
   phase spans). *)

module Telemetry = Hoyan_telemetry.Telemetry
module Trace = Hoyan_telemetry.Trace
module Metrics = Hoyan_telemetry.Metrics
module Journal = Hoyan_telemetry.Journal
module Json = Hoyan_telemetry.Json
module G = Hoyan_workload.Generator
module Framework = Hoyan_dist.Framework
module Parallel = Hoyan_sim.Parallel
module Db = Hoyan_dist.Db

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let scenario = lazy (G.generate G.small)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_round_trip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nstring\twith\\escapes");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "" ]);
        ("o", Json.Obj [ ("nested", Json.List []) ]);
      ]
  in
  (match Json.of_string (Json.to_string j) with
  | Ok j2 -> check tbool "round trip preserves the value" true (j = j2)
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  (* integral floats keep a decimal point so they parse back as floats *)
  check tstr "integral float keeps the point" "3.0"
    (Json.to_string (Json.Float 3.0));
  (* non-finite floats have no JSON form *)
  check tstr "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  (* accessors *)
  (match Json.member "i" j with
  | Some v -> check tint "member/int" (-42) (Option.get (Json.to_int_opt v))
  | None -> Alcotest.fail "member i missing");
  (* parse errors are reported, not raised *)
  check tbool "garbage is an Error" true
    (match Json.of_string "{\"x\": tru}" with Error _ -> true | Ok _ -> false);
  check tbool "trailing junk is an Error" true
    (match Json.of_string "1 2" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_round_trip () =
  let t = Trace.create () in
  let outer = Trace.start ~args:[ ("phase", "route") ] "outer" in
  let inner = Trace.start "inner" in
  Trace.finish t inner;
  Trace.finish t ~args:[ ("rows", "7") ] outer;
  check tint "two events" 2 (Trace.count t);
  (* nesting: the outer span starts no later and ends no earlier *)
  let evs = Trace.events t in
  let find name =
    List.find (fun (e : Trace.event) -> e.Trace.te_name = name) evs
  in
  let o = find "outer" and i = find "inner" in
  check tbool "outer starts first" true
    (Int64.compare o.Trace.te_ts_ns i.Trace.te_ts_ns <= 0);
  check tbool "outer ends last" true
    (Int64.compare
       (Int64.add o.Trace.te_ts_ns o.Trace.te_dur_ns)
       (Int64.add i.Trace.te_ts_ns i.Trace.te_dur_ns)
    >= 0);
  check tbool "finish args appended" true
    (List.mem_assoc "rows" o.Trace.te_args
    && List.mem_assoc "phase" o.Trace.te_args);
  (* Chrome trace JSON round-trips through the parser *)
  let s = Json.to_string (Trace.to_json t) in
  match Json.of_string s with
  | Error e -> Alcotest.fail ("trace JSON did not parse: " ^ e)
  | Ok j -> (
      match Trace.events_of_json j with
      | Error e -> Alcotest.fail ("trace events did not decode: " ^ e)
      | Ok evs2 ->
          check tint "all events survive" 2 (List.length evs2);
          let names e = List.map (fun (x : Trace.event) -> x.Trace.te_name) e in
          check (Alcotest.list tstr) "names survive" (names evs) (names evs2);
          let o2 =
            List.find (fun (e : Trace.event) -> e.Trace.te_name = "outer") evs2
          in
          check tbool "args survive" true
            (List.mem ("rows", "7") o2.Trace.te_args))

let test_trace_null_span () =
  let t = Trace.create () in
  Trace.finish t Trace.null_span;
  check tint "finishing the null span records nothing" 0 (Trace.count t)

let test_trace_summarize () =
  let t = Trace.create () in
  List.iter
    (fun (name, id) ->
      let sp =
        match id with
        | Some id -> Trace.start ~args:[ ("id", id) ] name
        | None -> Trace.start name
      in
      Trace.finish t sp)
    [ ("step", Some "a"); ("step", Some "b"); ("split", None) ];
  let rows = Trace.summarize (Trace.events t) in
  let step =
    List.find (fun (r : Trace.summary_row) -> r.Trace.sr_name = "step") rows
  in
  check tint "two step spans aggregated" 2 step.Trace.sr_count;
  let by_id = Trace.summarize_by_arg "id" (Trace.events t) in
  (* the span without the arg is excluded; a and b each appear once *)
  check tint "two ids" 2 (List.length by_id);
  List.iter
    (fun (r : Trace.summary_row) -> check tint "one span per id" 1 r.Trace.sr_count)
    by_id

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Metrics.incr m "requests" 1;
  Metrics.incr m "requests" 2;
  Metrics.incr m ~labels:[ ("phase", "route") ] "requests" 5;
  Metrics.gauge_set m "rows" 10.;
  Metrics.gauge_set m "rows" 20.;
  Metrics.observe m "latency" 0.001;
  Metrics.observe m "latency" 0.004;
  check tint "unlabelled counter" 3 (Metrics.counter_value m "requests");
  check tint "labelled counter" 5
    (Metrics.counter_value m ~labels:[ ("phase", "route") ] "requests");
  check tint "missing counter is 0" 0 (Metrics.counter_value m "nope");
  check (Alcotest.float 0.001) "gauge last-write-wins" 20.
    (Option.get (Metrics.gauge_value m "rows"));
  let snap = Metrics.snapshot m in
  let _, _, hv = List.find (fun (n, _, _) -> n = "latency") snap.Metrics.hists in
  check tint "histogram count" 2 hv.Metrics.hv_count;
  check (Alcotest.float 1e-9) "histogram sum" 0.005 hv.Metrics.hv_sum;
  (* cumulative buckets: the last bucket holds everything *)
  (match List.rev hv.Metrics.hv_buckets with
  | (_, last) :: _ -> check tint "last bucket cumulative" 2 last
  | [] -> Alcotest.fail "no buckets");
  (* Prometheus text exposition *)
  let prom = Metrics.to_prometheus m in
  let has needle =
    let re = Str.regexp_string needle in
    match Str.search_forward re prom 0 with
    | _ -> true
    | exception Not_found -> false
  in
  check tbool "TYPE line" true (has "# TYPE requests counter");
  check tbool "labelled sample" true (has "requests{phase=\"route\"} 5");
  check tbool "histogram sum line" true (has "latency_sum");
  check tbool "histogram count line" true (has "latency_count 2");
  check tbool "+Inf bucket" true (has "le=\"+Inf\"")

let test_metrics_domain_merge () =
  (* counter increments from concurrent domains all land: the per-domain
     shards merge on read *)
  let m = Metrics.create () in
  let xs = List.init 64 Fun.id in
  let _ =
    Parallel.map ~domains:4
      (fun i ->
        Metrics.incr m "work" 1;
        Metrics.observe m "cost" (float_of_int (i mod 7) /. 1000.);
        i)
      xs
  in
  check tint "no increment lost across domains" 64
    (Metrics.counter_value m "work");
  let snap = Metrics.snapshot m in
  let _, _, hv = List.find (fun (n, _, _) -> n = "cost") snap.Metrics.hists in
  check tint "no observation lost across domains" 64 hv.Metrics.hv_count

let test_trace_domain_merge () =
  (* spans finished on worker domains merge into one event list *)
  let tm = Telemetry.create () in
  let xs = List.init 32 Fun.id in
  let _ = Parallel.map ~tm ~domains:4 (fun i -> i * i) xs in
  let domain_spans =
    List.filter
      (fun (e : Trace.event) -> e.Trace.te_name = "parallel.domain")
      (Trace.events tm.Telemetry.trace)
  in
  check tint "one span per worker domain" 4 (List.length domain_spans);
  let items =
    List.fold_left
      (fun n (e : Trace.event) ->
        n + int_of_string (List.assoc "items" e.Trace.te_args))
      0 domain_spans
  in
  check tint "domain spans account for every item" 32 items;
  check tint "items counter agrees" 32
    (Metrics.counter_value tm.Telemetry.metrics "hoyan_parallel_items_total")

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal () =
  let j = Journal.create () in
  Journal.event j "a" [ ("x", Journal.I 1) ];
  Journal.event j "b" [ ("y", Journal.S "s"); ("z", Journal.B false) ];
  Journal.event j "a" [ ("x", Journal.I 2) ];
  check tint "three events" 3 (Journal.count j);
  let evs = Journal.events j in
  check (Alcotest.list tint) "sequence order" [ 0; 1; 2 ]
    (List.map (fun (e : Journal.event) -> e.Journal.ev_seq) evs);
  check tint "find by name" 2 (List.length (Journal.find j "a"));
  (* every JSONL line parses back and carries the event name *)
  let lines =
    String.split_on_char '\n' (String.trim (Journal.to_jsonl j))
  in
  check tint "one line per event" 3 (List.length lines);
  List.iter2
    (fun line (e : Journal.event) ->
      match Json.of_string line with
      | Error msg -> Alcotest.fail ("journal line did not parse: " ^ msg)
      | Ok js ->
          check tstr "ev field" e.Journal.ev_name
            (Option.get
               (Json.to_string_opt (Option.get (Json.member "ev" js)))))
    lines evs

(* ------------------------------------------------------------------ *)
(* The noop handle                                                     *)
(* ------------------------------------------------------------------ *)

let test_noop_records_nothing () =
  let tm = Telemetry.noop in
  let sp = Telemetry.span tm ~args:[ ("k", "v") ] "never" in
  Telemetry.finish tm sp;
  check tbool "noop span is the null span" true (sp == Trace.null_span);
  Telemetry.count tm "c" 1;
  Telemetry.gauge tm "g" 1.;
  Telemetry.observe tm "h" 1.;
  Telemetry.event tm "e" [];
  check tint "no trace events" 0 (Trace.count tm.Telemetry.trace);
  check tint "no metric ops" 0 (Metrics.ops tm.Telemetry.metrics);
  check tint "no journal events" 0 (Journal.count tm.Telemetry.journal);
  check tint "with_span still runs f" 7
    (Telemetry.with_span tm "x" (fun () -> 7))

(* The noop guard's cost, deterministically: every helper on the noop
   handle is one branch and allocates nothing, so 10^5 rounds of
   count / span + finish / observe / gauge leave the minor heap
   untouched.  (A wall-clock bound would flake on a shared machine.) *)
let test_noop_allocates_nothing () =
  let tm = Telemetry.noop in
  let round () =
    Telemetry.count tm "noop_alloc" 1;
    let sp = Telemetry.span tm "noop_alloc" in
    Telemetry.finish tm sp;
    Telemetry.observe tm "noop_alloc" 1.;
    Telemetry.gauge tm "noop_alloc" 1.
  in
  round ();
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    round ()
  done;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words allocated by 10^5 noop rounds" 0.
    (after -. before)

(* ------------------------------------------------------------------ *)
(* Instrumented pipeline                                               *)
(* ------------------------------------------------------------------ *)

(** The journal signature of an event, floats (wall-clock durations)
    excluded: what must be identical between two runs of the same
    workload. *)
let journal_sig (e : Journal.event) =
  ( e.Journal.ev_name,
    List.filter
      (fun (_, f) -> match f with Journal.F _ -> false | _ -> true)
      e.Journal.ev_fields )

let run_instrumented () =
  let g = Lazy.force scenario in
  let tm = Telemetry.create () in
  let fw = Framework.create ~tm g.G.model in
  let rp = Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes in
  let _tp =
    Framework.run_traffic_phase ~subtasks:8 fw ~route_phase:rp ~flows:g.G.flows
  in
  tm

let test_pipeline_determinism () =
  (* two runs of the same fixed workload produce identical counters and
     identical journal signatures (timings differ, of course) *)
  let tm1 = run_instrumented () and tm2 = run_instrumented () in
  let counters tm = (Metrics.snapshot tm.Telemetry.metrics).Metrics.counters in
  check tbool "counters non-empty" true (counters tm1 <> []);
  check tbool "counters identical across runs" true
    (counters tm1 = counters tm2);
  let sigs tm = List.map journal_sig (Journal.events tm.Telemetry.journal) in
  check tbool "journal signatures identical across runs" true
    (sigs tm1 = sigs tm2)

let test_pipeline_metrics_coverage () =
  let g = Lazy.force scenario in
  let tm = run_instrumented () in
  let m = tm.Telemetry.metrics in
  let route = [ ("phase", "route") ] and traffic = [ ("phase", "traffic") ] in
  (* subtask accounting covers both phases *)
  check tbool "route subtasks completed" true
    (Metrics.counter_value m ~labels:route "hoyan_subtasks_completed_total" > 0);
  check tbool "traffic subtasks completed" true
    (Metrics.counter_value m ~labels:traffic "hoyan_subtasks_completed_total"
    > 0);
  check tint "enqueued = dequeued (no failures)"
    (Metrics.counter_value m ~labels:route "hoyan_subtasks_enqueued_total")
    (Metrics.counter_value m ~labels:route "hoyan_subtasks_dequeued_total");
  (* I/O bytes: the route phase reads its input routes *)
  check tbool "io bytes accounted" true
    (Metrics.counter_value m ~labels:route "hoyan_subtask_io_bytes_total"
    >= List.length g.G.input_routes * Hoyan_dist.Storage.bytes_per_route);
  (* fixpoint rounds and EC compression from the simulators *)
  check tbool "fixpoint rounds counted" true
    (Metrics.counter_value m "hoyan_route_fixpoint_rounds_total" > 0);
  let snap = Metrics.snapshot m in
  check tbool "EC compression observed for both phases" true
    (List.exists (fun (n, l, _) -> n = "hoyan_ec_compression_ratio" && l = route)
       snap.Metrics.hists
    && List.exists
         (fun (n, l, _) -> n = "hoyan_ec_compression_ratio" && l = traffic)
         snap.Metrics.hists);
  (* durations are observed once per completed subtask *)
  let _, _, hv =
    List.find
      (fun (n, l, _) -> n = "hoyan_subtask_duration_seconds" && l = route)
      snap.Metrics.hists
  in
  check tint "one duration sample per route subtask"
    (Metrics.counter_value m ~labels:route "hoyan_subtasks_completed_total")
    hv.Metrics.hv_count;
  (* journal carries the subtask lifecycle and the per-round fixpoint log *)
  check tbool "enqueue events" true
    (Journal.find tm.Telemetry.journal "subtask.enqueue" <> []);
  check tbool "done events" true
    (Journal.find tm.Telemetry.journal "subtask.done" <> []);
  check tbool "bgp round events" true
    (Journal.find tm.Telemetry.journal "bgp.round" <> [])

(* The BGP kernel counts its export-policy evaluations: once per
   (route, export group), not per session.  On [small] the total is
   pinned (3,598 when each session evaluated the policy itself), and
   split into prefix shards it stays the same: each shard's round
   events carry its running count, which never falls, and the shards'
   last counts sum to the counter.  One [route.shard] span per shard
   carries its messages. *)
let test_bgp_export_evals () =
  let g = Lazy.force scenario in
  List.iter
    (fun domains ->
      let msg s = Printf.sprintf "%d domain(s): %s" domains s in
      let tm = Telemetry.create () in
      let res =
        Hoyan_sim.Route_sim.run ~tm ~domains g.G.model
          ~input_routes:g.G.input_routes ()
      in
      check tint (msg "shards") domains res.Hoyan_sim.Route_sim.shards;
      let counter = Metrics.counter_value tm.Telemetry.metrics in
      let evals = counter "hoyan_bgp_export_evals_total" in
      check tint (msg "export evaluations") 1251 evals;
      check tint (msg "messages") 1464 (counter "hoyan_bgp_messages_total");
      let field name (e : Journal.event) =
        match List.assoc_opt name e.Journal.ev_fields with
        | Some (Journal.I n) -> n
        | _ -> Alcotest.fail ("bgp.round without " ^ name)
      in
      let rounds = Journal.find tm.Telemetry.journal "bgp.round" in
      let shards = List.sort_uniq compare (List.map (field "shard") rounds) in
      check
        Alcotest.(list int)
        (msg "every shard reports its rounds")
        (List.init domains Fun.id) shards;
      let last_counts =
        List.map
          (fun k ->
            let per_round =
              List.filter_map
                (fun e ->
                  if field "shard" e = k then Some (field "export_evals" e)
                  else None)
                rounds
            in
            check tbool
              (msg (Printf.sprintf "shard %d: running count never falls" k))
              true
              (List.sort compare per_round = per_round);
            List.nth per_round (List.length per_round - 1))
          shards
      in
      check tint (msg "the shards' last counts sum to the total") evals
        (List.fold_left ( + ) 0 last_counts);
      let shard_spans =
        List.filter
          (fun (e : Trace.event) -> e.Trace.te_name = "route.shard")
          (Trace.events tm.Telemetry.trace)
      in
      check tint (msg "one span per shard") domains (List.length shard_spans);
      check tint (msg "shard spans carry every message") 1464
        (List.fold_left
           (fun n (e : Trace.event) ->
             n + int_of_string (List.assoc "messages" e.Trace.te_args))
           0 shard_spans))
    [ 1; 2 ]

let test_retry_telemetry () =
  let g = Lazy.force scenario in
  let tm = Telemetry.create () in
  let fw =
    Framework.create ~tm
      ~chaos:(Hoyan_dist.Chaos.make ~seed:11 ~crash_prob:0.3 ())
      g.G.model
  in
  let _ = Framework.run_route_phase ~subtasks:10 fw ~input_routes:g.G.input_routes in
  let resends =
    Metrics.counter_value tm.Telemetry.metrics
      ~labels:[ ("phase", "route") ] "hoyan_monitor_resends_total"
  in
  check tbool "monitor re-sends counted" true (resends > 0);
  (* with crash-only injection every re-send is executed, so the counter
     agrees with the DB's attempt bookkeeping *)
  let extra_attempts =
    Db.all fw.Framework.db
    |> List.fold_left (fun n (_, e) -> n + (Db.attempts e - 1)) 0
  in
  check tint "re-sends = extra attempts" extra_attempts resends;
  check tint "one journal retry event per re-send" resends
    (List.length (Journal.find tm.Telemetry.journal "subtask.retry"));
  (* every retry was preceded by a recorded failure; terminal subtasks
     (if any) add failure events beyond the retries *)
  let failures =
    List.length (Journal.find tm.Telemetry.journal "subtask.failure")
  in
  let terminals =
    List.length (Journal.find tm.Telemetry.journal "subtask.terminal_failure")
  in
  check tint "failures = retries + terminal failures" (resends + terminals)
    failures

let test_verify_request_spans () =
  let g = Lazy.force scenario in
  let base =
    Hoyan_core.Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
      ~monitored_flows:g.G.flows
  in
  let rq =
    {
      Hoyan_core.Verify_request.rq_name = "t";
      rq_plan = Hoyan_config.Change_plan.make "t" ~commands:[];
      rq_intents = [ Hoyan_core.Intents.Route_change "PRE = POST" ];
    }
  in
  let tm = Telemetry.create () in
  let res = Hoyan_core.Verify_request.run ~tm base rq in
  check tbool "request passes" true res.Hoyan_core.Verify_request.vr_ok;
  let span_names =
    List.map
      (fun (e : Trace.event) -> e.Trace.te_name)
      (Trace.events tm.Telemetry.trace)
  in
  List.iter
    (fun phase ->
      check tbool (phase ^ " span present") true (List.mem phase span_names))
    [
      "verify.request"; "verify.lint_gate"; "verify.model_update";
      "verify.route_sim"; "verify.intents";
    ];
  (* the lint gate journals its outcome *)
  match Journal.find tm.Telemetry.journal "lint.gate" with
  | [ e ] ->
      check tbool "gate did not fire" true
        (List.mem ("gated", Journal.B false) e.Journal.ev_fields)
  | _ -> Alcotest.fail "expected exactly one lint.gate event"

let suite =
  [
    ("json round trip", `Quick, test_json_round_trip);
    ("trace round trip", `Quick, test_trace_round_trip);
    ("trace null span", `Quick, test_trace_null_span);
    ("trace summarize", `Quick, test_trace_summarize);
    ("metrics basics + prometheus", `Quick, test_metrics_basics);
    ("metrics domain-shard merge", `Quick, test_metrics_domain_merge);
    ("trace domain-shard merge", `Quick, test_trace_domain_merge);
    ("journal ordering + jsonl", `Quick, test_journal);
    ("noop records nothing", `Quick, test_noop_records_nothing);
    ("noop helpers allocate nothing", `Quick, test_noop_allocates_nothing);
    ("pipeline determinism", `Slow, test_pipeline_determinism);
    ("pipeline metrics coverage", `Slow, test_pipeline_metrics_coverage);
    ("retry telemetry", `Slow, test_retry_telemetry);
    ("verify-request spans", `Slow, test_verify_request_spans);
    ("bgp export evaluations counted", `Quick, test_bgp_export_evals);
  ]
