(* The hoyan command-line interface.

   In production Hoyan serves a web GUI (high-risk, manually designed
   changes) and a REST API (automated low-risk changes); this CLI is the
   equivalent front door for the reproduction:

     hoyan simulate  [--scale small|wan|wan-dcn] [--distributed N]
                     [--fail-prob P] [--chaos MODE] [--chaos-seed S]
                     [--lease-s SECONDS]
     hoyan verify    --plan FILE [--device NAME]... --intent SPEC...
                     [--diff]          # carry unaffected intents over
                     [--inc]           # dirty-region splice simulation
                     [--selfcheck]     # splice == from-scratch oracle
                     [--distributed [--fail-prob P] [--chaos MODE]
                      [--degrade]]     # not with --inc
     hoyan lint      [--plan FILE --device NAME]... [--intent SPEC]...
                     [--json] [--inject CLASS|all] [--deep]
                     [--max-warnings N] [--baseline FILE]
     hoyan analyze   [--scale ...]     # cross-device semantic pass only
     hoyan diff      PLAN --device NAME... [--json] [--max-warnings N]
                     [--baseline FILE] [--write-baseline FILE]
     hoyan rcl       --spec STRING [--explain]
     hoyan diagnose  [--fault agent-down|netflow|...]
     hoyan audit     [--scale ...]
     hoyan vsb                         # Table-5 differential sweep
     hoyan trace summarize FILE        # per-phase/per-subtask breakdown
     hoyan serve     --requests FILE [--budget S] [--selfcheck]
                     [--metrics-out FILE [--metrics-every N]]
     hoyan whatif    [-k K] [--devices] [--prefix P --on DEV,DEV]
                     [--prop reach|overload] [--json] [--selfcheck]

   simulate and verify accept --trace/--metrics/--journal FILE options
   that install a live telemetry handle and write the Chrome trace JSON,
   the Prometheus text exposition, and the JSONL event journal. *)

open Cmdliner
open Hoyan_net
module G = Hoyan_workload.Generator
module S = Hoyan_workload.Scenarios
module Defects = Hoyan_workload.Defects
module Cp = Hoyan_config.Change_plan
module Types = Hoyan_config.Types
module Lint = Hoyan_analysis.Lint
module Semantic = Hoyan_analysis.Semantic
module Differential = Hoyan_analysis.Differential
module Diagnostics = Hoyan_analysis.Diagnostics
module Preprocess = Hoyan_core.Preprocess
module Intents = Hoyan_core.Intents
module Verify_request = Hoyan_core.Verify_request
module Audit = Hoyan_core.Audit
module Route_sim = Hoyan_sim.Route_sim
module Traffic_sim = Hoyan_sim.Traffic_sim
module Incremental = Hoyan_sim.Incremental
module Bgp = Hoyan_proto.Bgp
module Server = Hoyan_server.Server
module Request = Hoyan_server.Request
module Telemetry = Hoyan_telemetry.Telemetry
module Trace = Hoyan_telemetry.Trace
module Metrics = Hoyan_telemetry.Metrics
module Journal = Hoyan_telemetry.Journal
module Tjson = Hoyan_telemetry.Json

(* ------------------------------------------------------------------ *)
(* shared options                                                      *)
(* ------------------------------------------------------------------ *)

let scale_arg =
  let scales = [ ("small", G.small); ("wan", G.wan); ("wan-dcn", G.wan_dcn) ] in
  let scale_conv = Arg.enum scales in
  Arg.(value
       & opt scale_conv G.small
       & info [ "scale" ] ~docv:"SCALE"
           ~doc:"Workload scale: $(b,small), $(b,wan) or $(b,wan-dcn).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let gen params seed = G.generate { params with G.g_seed = seed }

(* telemetry output options shared by simulate and verify *)

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON of the run to $(docv) \
                 (load in chrome://tracing or Perfetto; summarize with \
                 $(b,hoyan trace summarize)).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the run's metrics in Prometheus text exposition \
                 format to $(docv).")

let journal_out_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Write the structured pipeline event journal (JSONL) to \
                 $(docv).")

(* chaos / fault-injection options shared by simulate and verify *)

let fail_prob_arg =
  Arg.(value & opt float 0.
       & info [ "fail-prob" ] ~docv:"P"
           ~doc:"Per-decision fault probability for --chaos (or, without \
                 --chaos, the worker-crash probability).")

let chaos_mode_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"MODE"
           ~doc:"Inject faults into the distributed framework: \
                 $(b,crashes), $(b,storage-loss), $(b,mq-faults), \
                 $(b,stalls) or $(b,mixed).  Deterministic per \
                 --chaos-seed.")

let chaos_seed_arg =
  Arg.(value & opt int 42
       & info [ "chaos-seed" ] ~docv:"SEED"
           ~doc:"Seed of the chaos plan (fault decisions are a pure \
                 function of the seed, so runs replay identically).")

let lease_arg =
  Arg.(value & opt float 30.
       & info [ "lease-s" ] ~docv:"SECONDS"
           ~doc:"Subtask lease duration: a worker that has not reported \
                 within the lease is presumed dead and its subtask is \
                 re-sent.")

(** Resolve the chaos flags into a plan; [Error] on an unknown mode. *)
let chaos_of ~fail_prob ~chaos_mode ~chaos_seed :
    (Hoyan_dist.Chaos.t, string) Stdlib.result =
  match chaos_mode with
  | None ->
      Ok
        (if fail_prob > 0. then
           Hoyan_dist.Chaos.make ~seed:chaos_seed ~crash_prob:fail_prob ()
         else Hoyan_dist.Chaos.none)
  | Some m -> (
      match Hoyan_workload.Faultplan.mode_of_string m with
      | None ->
          Error
            (Printf.sprintf
               "unknown --chaos mode %S (expected crashes, storage-loss, \
                mq-faults, stalls or mixed)"
               m)
      | Some mode ->
          let prob = if fail_prob > 0. then fail_prob else 0.2 in
          Ok (Hoyan_workload.Faultplan.plan ~seed:chaos_seed ~prob mode))

let read_file f = In_channel.with_open_bin f In_channel.input_all

(** Install a live telemetry handle when any output file was requested,
    run [f], then write the requested files. *)
let with_telemetry ~trace_out ~metrics_out ~journal_out f =
  match (trace_out, metrics_out, journal_out) with
  | None, None, None -> f ()
  | _ ->
      let tm = Telemetry.create () in
      Telemetry.set tm;
      let code = f () in
      Option.iter
        (fun path ->
          Trace.write_file tm.Telemetry.trace path;
          Printf.printf "trace: %d events -> %s\n"
            (Trace.count tm.Telemetry.trace)
            path)
        trace_out;
      Option.iter
        (fun path ->
          Metrics.write_prometheus_file tm.Telemetry.metrics path;
          Printf.printf "metrics: %d updates -> %s\n"
            (Metrics.ops tm.Telemetry.metrics)
            path)
        metrics_out;
      Option.iter
        (fun path ->
          Journal.write_file tm.Telemetry.journal path;
          Printf.printf "journal: %d events -> %s\n"
            (Journal.count tm.Telemetry.journal)
            path)
        journal_out;
      Telemetry.set Telemetry.noop;
      code

(* ------------------------------------------------------------------ *)
(* hoyan simulate                                                      *)
(* ------------------------------------------------------------------ *)

let simulate params seed distributed fail_prob chaos_mode chaos_seed lease_s
    trace_out metrics_out journal_out =
  with_telemetry ~trace_out ~metrics_out ~journal_out @@ fun () ->
  match chaos_of ~fail_prob ~chaos_mode ~chaos_seed with
  | Error msg ->
      prerr_endline msg;
      2
  | Ok chaos ->
  let g = gen params seed in
  Printf.printf "network: %s\n%!" (G.stats g);
  let t0 = Unix.gettimeofday () in
  let incomplete = ref false in
  let rib =
    match distributed with
    | None ->
        let res = Route_sim.run g.G.model ~input_routes:g.G.input_routes () in
        Printf.printf
          "route simulation: %d RIB rows, %.2fx EC compression, %d fixpoint \
           rounds; %d prefix shard(s), measured %.2fs\n"
          (Rib.length res.Route_sim.rib)
          res.Route_sim.compression
          res.Route_sim.bgp_stats.Bgp.st_rounds
          res.Route_sim.shards
          (Unix.gettimeofday () -. t0);
        res.Route_sim.rib
    | Some servers ->
        let fw =
          Hoyan_dist.Framework.create ~chaos ~lease_s g.G.model
        in
        let rp =
          Hoyan_dist.Framework.run_route_phase ~subtasks:100 fw
            ~input_routes:g.G.input_routes
        in
        let t =
          Hoyan_dist.Framework.phase_time fw ~servers
            rp.Hoyan_dist.Framework.rp_subtasks
        in
        Printf.printf
          "distributed route simulation: %d RIB rows; measured %.2fs in this \
           process; modelled end-to-end on %d servers: %.2fs\n"
          (Rib.length rp.Hoyan_dist.Framework.rp_rib)
          (Unix.gettimeofday () -. t0)
          servers t;
        if not (Hoyan_dist.Chaos.is_none chaos) then
          Printf.printf "%s\n" (Hoyan_dist.Framework.monitor_report fw);
        if not rp.Hoyan_dist.Framework.rp_complete then begin
          incomplete := true;
          List.iter
            (fun f ->
              Printf.printf "permanently failed: %s\n"
                (Hoyan_dist.Framework.failure_to_string f))
            rp.Hoyan_dist.Framework.rp_failed
        end;
        rp.Hoyan_dist.Framework.rp_rib
  in
  let tr = Traffic_sim.run g.G.model ~rib ~flows:g.G.flows () in
  let s f = List.fold_left (fun a fr -> a +. f fr) 0. tr.Traffic_sim.flow_results in
  Printf.printf
    "traffic simulation: %d flow ECs; delivered %.0f, dropped %.0f, looped \
     %.0f of %d flow records; %d links loaded\n"
    tr.Traffic_sim.ec_count
    (s (fun fr -> fr.Traffic_sim.f_delivered))
    (s (fun fr -> fr.Traffic_sim.f_dropped))
    (s (fun fr -> fr.Traffic_sim.f_looped))
    (List.length tr.Traffic_sim.flow_results)
    (Hashtbl.length tr.Traffic_sim.link_load);
  Printf.printf "total: %.2fs\n" (Unix.gettimeofday () -. t0);
  if !incomplete then 1 else 0

let simulate_cmd =
  let distributed =
    Arg.(value & opt (some int) None
         & info [ "distributed" ] ~docv:"SERVERS"
             ~doc:"Run through the distributed framework and report its \
                   measured time in this process, and the end-to-end time \
                   for $(docv) working servers modelled from the measured \
                   subtask durations.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Generate a synthetic WAN and simulate it")
    Term.(
      const simulate $ scale_arg $ seed_arg $ distributed $ fail_prob_arg
      $ chaos_mode_arg $ chaos_seed_arg $ lease_arg $ trace_out_arg
      $ metrics_out_arg $ journal_out_arg)

(* ------------------------------------------------------------------ *)
(* hoyan verify                                                        *)
(* ------------------------------------------------------------------ *)

let verify params seed plan_file devices intents distributed fail_prob
    chaos_mode chaos_seed degrade diff inc selfcheck trace_out metrics_out
    journal_out =
  with_telemetry ~trace_out ~metrics_out ~journal_out @@ fun () ->
  match chaos_of ~fail_prob ~chaos_mode ~chaos_seed with
  | Error msg ->
      prerr_endline msg;
      2
  | Ok _ when inc && distributed ->
      prerr_endline
        "--inc splices in-process; it cannot be combined with --distributed";
      2
  | Ok _
    when (not distributed)
         && (fail_prob <> 0. || chaos_mode <> None || degrade) ->
      prerr_endline "--fail-prob, --chaos and --degrade require --distributed";
      2
  | Ok chaos ->
  let g = gen params seed in
  let base =
    Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
      ~monitored_flows:g.G.flows
  in
  let block = Option.fold ~none:"" ~some:read_file plan_file in
  let commands = List.map (fun d -> (d, block)) devices in
  let rq_intents =
    List.map (fun spec -> Intents.Route_change spec) intents
  in
  let rq_intents =
    if rq_intents = [] then [ Intents.Route_change "PRE = POST" ]
    else rq_intents
  in
  let rq =
    {
      Verify_request.rq_name =
        Option.value plan_file ~default:"(no-op change)";
      rq_plan = Cp.make "cli" ~commands;
      rq_intents;
    }
  in
  (* --inc / --selfcheck both need a captured converged-base context *)
  let ictx =
    if inc || selfcheck then
      Some
        (Incremental.capture ~model:g.G.model
           ~input_routes:base.Preprocess.b_input_routes
           ~flows:base.Preprocess.b_flows
           ~rib:(Lazy.force base.Preprocess.b_rib) ())
    else None
  in
  let selfcheck_ok =
    match ictx with
    | Some cx when selfcheck ->
        let ck = Incremental.selfcheck cx rq.Verify_request.rq_plan in
        Printf.printf
          "selfcheck: rib %s, fib %s, traffic %s (%d dirty prefix(es), %d \
           delta row(s), %d reused%s)\n"
          (if ck.Incremental.ck_rib_ok then "identical" else "MISMATCH")
          (if ck.Incremental.ck_fib_ok then "identical" else "MISMATCH")
          (if ck.Incremental.ck_traffic_ok then "identical" else "MISMATCH")
          ck.Incremental.ck_stats.Incremental.st_dirty_prefixes
          ck.Incremental.ck_stats.Incremental.st_delta_rows
          ck.Incremental.ck_stats.Incremental.st_reused_rows
          (if ck.Incremental.ck_stats.Incremental.st_full_fallback then
             "; full fallback"
           else "");
        ck.Incremental.ck_ok
    | _ -> true
  in
  let exec =
    match ictx with
    | Some cx when inc -> Verify_request.Splice cx
    | _ when distributed ->
        Verify_request.Distributed
          {
            subtasks = 100;
            chaos;
            on_partial = (if degrade then `Degrade else `Refuse);
          }
    | _ -> Verify_request.From_scratch
  in
  let stage =
    if diff then Verify_request.Diff exec else Verify_request.Simulate exec
  in
  let res = Verify_request.run ~stage base rq in
  print_string (Verify_request.report res);
  if res.Verify_request.vr_ok && selfcheck_ok then 0 else 1

let verify_cmd =
  let plan =
    Arg.(value & opt (some file) None
         & info [ "plan" ] ~docv:"FILE"
             ~doc:"Change-plan command block (applied to each --device).")
  in
  let devices =
    Arg.(value & opt_all string []
         & info [ "device" ] ~docv:"NAME" ~doc:"Target device (repeatable).")
  in
  let intents =
    Arg.(value & opt_all string []
         & info [ "intent" ] ~docv:"RCL"
             ~doc:"Route-change intent in RCL (repeatable); defaults to \
                   'PRE = POST'.")
  in
  let distributed =
    Arg.(value & flag
         & info [ "distributed" ]
             ~doc:"Verify through the distributed framework (100 route \
                   subtasks); the only mode --fail-prob, --chaos and \
                   --degrade apply to.")
  in
  let degrade =
    Arg.(value & flag
         & info [ "degrade" ]
             ~doc:"With --distributed and permanently-failed subtasks: \
                   verify intents over the partial results anyway \
                   (flagged, never PASS) instead of withholding the \
                   verdicts.")
  in
  let diff =
    Arg.(value & flag
         & info [ "diff" ]
             ~doc:"Differential mode: carry over the verdict of every \
                   intent whose prefix lies outside the plan's static \
                   dirty region (no re-simulation) and simulate only \
                   the remainder.")
  in
  let inc =
    Arg.(value & flag
         & info [ "inc" ]
             ~doc:"Incremental simulation: re-converge only the plan's \
                   dirty region and splice into the cached converged \
                   base (not with --distributed; broad plans fall back \
                   to a full run, reported).")
  in
  let selfcheck =
    Arg.(value & flag
         & info [ "selfcheck" ]
             ~doc:"Run the splice oracle: the incrementally spliced RIB, \
                   the patched FIBs and the traffic must be identical to \
                   a full from-scratch run of the patched model.  \
                   Non-zero exit on mismatch.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a change plan against RCL intents")
    Term.(
      const verify $ scale_arg $ seed_arg $ plan $ devices $ intents
      $ distributed $ fail_prob_arg $ chaos_mode_arg $ chaos_seed_arg
      $ degrade $ diff $ inc $ selfcheck $ trace_out_arg $ metrics_out_arg
      $ journal_out_arg)

(* ------------------------------------------------------------------ *)
(* hoyan lint                                                          *)
(* ------------------------------------------------------------------ *)

(* Shared tail of `hoyan lint` / `hoyan analyze`: optional baseline
   suppression, optional baseline recording, rendering, and the CLI
   exit-code contract (0 clean, 1 warnings over --max-warnings, 2 any
   error). *)
let finish_diags ~json ~max_warnings ~baseline ~write_baseline ~label diags =
  match write_baseline with
  | Some f ->
      let oc = open_out f in
      output_string oc (Diagnostics.to_baseline diags);
      close_out oc;
      Printf.printf "%s: recorded %d finding(s) into baseline %s\n" label
        (List.length diags) f;
      0
  | None ->
      let diags =
        match baseline with
        | None -> diags
        | Some f ->
            Diagnostics.apply_baseline
              ~baseline:(Diagnostics.parse_baseline (read_file f))
              diags
      in
      if json then print_string (Diagnostics.list_to_json diags)
      else begin
        List.iter (fun d -> print_endline (Diagnostics.to_string d)) diags;
        Printf.printf "%s: %s\n" label (Diagnostics.summary diags)
      end;
      Diagnostics.exit_code ~max_warnings diags

let lint params seed plan_file devices intents json inject deep max_warnings
    baseline write_baseline =
  let g = gen params seed in
  let model = g.G.model in
  let configs = model.Hoyan_sim.Model.configs in
  let topo = model.Hoyan_sim.Model.topo in
  match inject with
  | Some cls ->
      (* plant defect(s) into the clean corpus and report whether the
         expected diagnostic fires (through the full static-analysis
         stack: per-device lint + cross-device semantic pass) *)
      let injected =
        if String.equal cls "all" then Defects.inject_all g
        else [ Defects.inject g cls ]
      in
      let ok =
        List.for_all
          (fun (inj : Defects.injected) ->
            let diags = Defects.detect inj in
            let fired =
              List.exists
                (fun (d : Diagnostics.t) ->
                  String.equal d.Diagnostics.d_code inj.Defects.inj_code)
                diags
            in
            Printf.printf "%-28s %s %s%s\n" inj.Defects.inj_class
              inj.Defects.inj_code
              (if fired then "DETECTED" else "MISSED")
              (match inj.Defects.inj_device with
              | Some dev -> Printf.sprintf " (on %s)" dev
              | None -> "");
            fired)
          injected
      in
      if ok then 0 else 1
  | None ->
      let plan =
        match plan_file with
        | None -> None
        | Some f ->
            let block = read_file f in
            Some (Cp.make "cli" ~commands:(List.map (fun d -> (d, block)) devices))
      in
      let specs =
        List.mapi (fun i s -> (Printf.sprintf "intent-%d" i, s)) intents
      in
      let t0 = Unix.gettimeofday () in
      let input = Lint.make ~topo ?plan ~specs configs in
      let diags =
        Lint.run input @ (if deep then Semantic.analyze input else [])
      in
      let dt = Unix.gettimeofday () -. t0 in
      let code =
        finish_diags ~json ~max_warnings ~baseline ~write_baseline
          ~label:"lint" diags
      in
      if not json then
        Printf.printf "lint: %d device(s) in %.3fs%s\n"
          (Types.Smap.cardinal configs)
          dt
          (if deep then " (with the semantic pass)" else "");
      code

(* ------------------------------------------------------------------ *)
(* hoyan analyze: the cross-device semantic pass on its own             *)
(* ------------------------------------------------------------------ *)

let analyze params seed json max_warnings baseline write_baseline =
  let g = gen params seed in
  let model = g.G.model in
  let configs = model.Hoyan_sim.Model.configs in
  let topo = model.Hoyan_sim.Model.topo in
  let t0 = Unix.gettimeofday () in
  let input = Lint.make ~topo configs in
  let graph = Semantic.build input in
  let diags = Semantic.check graph in
  let dt = Unix.gettimeofday () -. t0 in
  let code =
    finish_diags ~json ~max_warnings ~baseline ~write_baseline
      ~label:"analyze" diags
  in
  if not json then
    Printf.printf "analyze: control-plane graph %s (%.3fs)\n"
      (Semantic.stats_to_string graph.Semantic.g_stats)
      dt;
  code

let deep_arg =
  Arg.(value & flag
       & info [ "deep" ]
           ~doc:"Also run the cross-device semantic pass (control-plane \
                 graph + symbolic policy dataflow, HOY020-HOY028) on top \
                 of the per-device lint.")

let max_warnings_arg =
  Arg.(value & opt int 0
       & info [ "max-warnings" ] ~docv:"N"
           ~doc:"Tolerate up to $(docv) warning-severity findings before \
                 exiting 1 (errors always exit 2).")

let baseline_arg =
  Arg.(value & opt (some file) None
       & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Suppress findings recorded in $(docv) (see \
                 $(b,--write-baseline)); only new findings count toward \
                 the exit code.")

let write_baseline_arg =
  Arg.(value & opt (some string) None
       & info [ "write-baseline" ] ~docv:"FILE"
           ~doc:"Record the current findings into $(docv) and exit 0; \
                 pass the file back via $(b,--baseline) to ratchet.")

let lint_cmd =
  let plan =
    Arg.(value & opt (some file) None
         & info [ "plan" ] ~docv:"FILE"
             ~doc:"Change-plan command block to lint (applied to each \
                   --device).")
  in
  let devices =
    Arg.(value & opt_all string []
         & info [ "device" ] ~docv:"NAME" ~doc:"Target device (repeatable).")
  in
  let intents =
    Arg.(value & opt_all string []
         & info [ "intent" ] ~docv:"RCL"
             ~doc:"RCL specification to lint (repeatable).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Machine-readable JSON diagnostics output.")
  in
  let inject =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"CLASS"
             ~doc:"Plant a lintable defect ($(b,all) or a check name, e.g. \
                   $(b,undefined-prefix-list)) and report whether its \
                   diagnostic fires.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyse configs, a change plan and RCL specs \
             (no simulation)")
    Term.(
      const lint $ scale_arg $ seed_arg $ plan $ devices $ intents $ json
      $ inject $ deep_arg $ max_warnings_arg $ baseline_arg
      $ write_baseline_arg)

(* ------------------------------------------------------------------ *)
(* hoyan analyze                                                       *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Machine-readable JSON diagnostics output.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Whole-network semantic analysis: build the control-plane \
             graph (BGP sessions, IS-IS adjacencies, redistribution and \
             VRF leak edges) and run the cross-device checks \
             (HOY020-HOY028), without simulating")
    Term.(
      const analyze $ scale_arg $ seed_arg $ json $ max_warnings_arg
      $ baseline_arg $ write_baseline_arg)

(* ------------------------------------------------------------------ *)
(* hoyan diff: the differential change-impact pass                      *)
(* ------------------------------------------------------------------ *)

let diff_run params seed plan_file devices withdraws json max_warnings
    baseline write_baseline =
  let g = gen params seed in
  let model = g.G.model in
  let configs = model.Hoyan_sim.Model.configs in
  let topo = model.Hoyan_sim.Model.topo in
  let block = read_file plan_file in
  let withdraw = List.map Prefix.of_string_exn withdraws in
  let plan =
    Cp.make "cli" ~withdraw
      ~commands:(List.map (fun d -> (d, block)) devices)
  in
  let t0 = Unix.gettimeofday () in
  let input = Lint.make ~topo configs in
  let d = Differential.diff input plan in
  let diags = Differential.check ~input_routes:g.G.input_routes d in
  let dt = Unix.gettimeofday () -. t0 in
  let code =
    finish_diags ~json ~max_warnings ~baseline ~write_baseline ~label:"diff"
      diags
  in
  if not json then begin
    Printf.printf "diff: %s (%.3fs)\n" (Differential.summary d) dt;
    let im = Differential.impact d ~input_routes:g.G.input_routes in
    Printf.printf "impact: %d device(s), %s\n"
      (List.length im.Differential.im_devices)
      (if im.Differential.im_all_prefixes then
         "every prefix (topology change)"
       else
         Printf.sprintf "%d dirty prefix(es)"
           (Prefix.Set.cardinal im.Differential.im_prefixes))
  end;
  code

let diff_cmd =
  let plan =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"PLAN"
             ~doc:"Change-plan command block to diff (applied to each \
                   --device against the generated base corpus).")
  in
  let devices =
    Arg.(value & opt_all string []
         & info [ "device" ] ~docv:"NAME" ~doc:"Target device (repeatable).")
  in
  let withdraws =
    Arg.(value & opt_all string []
         & info [ "withdraw" ] ~docv:"PREFIX"
             ~doc:"Prefix the plan withdraws (repeatable).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Machine-readable JSON diagnostics output.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Differential change-impact analysis: semantically diff the \
             base corpus against the patched one, classify the plan \
             (no-op / local / propagating), report the plan's \
             application issues (HOY012-HOY014, as lint does) and the \
             plan-risk checks (HOY030-HOY037) and the blast radius, \
             without simulating")
    Term.(
      const diff_run $ scale_arg $ seed_arg $ plan $ devices $ withdraws
      $ json $ max_warnings_arg $ baseline_arg $ write_baseline_arg)

(* ------------------------------------------------------------------ *)
(* hoyan rcl                                                           *)
(* ------------------------------------------------------------------ *)

let rcl spec explain =
  match Hoyan_rcl.Parser.parse spec with
  | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      1
  | Ok ast ->
      Printf.printf "parsed: %s\nsize: %d internal nodes\n"
        (Hoyan_rcl.Pretty.intent ast)
        (Hoyan_rcl.Ast.size ast);
      if explain then begin
        (* evaluate against the Figure-6 example RIBs *)
        let ip = Ip.of_string_exn and pfx = Prefix.of_string_exn in
        let comm = Community.of_string_exn in
        let route ~device ~vrf ~prefix ~communities ~lp ~nexthop =
          Route.make ~device ~vrf ~prefix:(pfx prefix)
            ~communities:(Community.Set.of_list (List.map comm communities))
            ~local_pref:lp ~nexthop:(ip nexthop) ()
        in
        let base =
          [
            route ~device:"A" ~vrf:"global" ~prefix:"10.0.0.0/24"
              ~communities:[ "100:1" ] ~lp:100 ~nexthop:"2.0.0.1";
            route ~device:"A" ~vrf:"vrf1" ~prefix:"20.0.0.0/24"
              ~communities:[ "100:1"; "200:1" ] ~lp:10 ~nexthop:"3.0.0.1";
            route ~device:"B" ~vrf:"global" ~prefix:"10.0.0.0/24"
              ~communities:[ "100:1" ] ~lp:200 ~nexthop:"4.0.0.1";
          ]
        in
        let updated =
          List.map
            (fun (r : Route.t) ->
              if Prefix.equal r.Route.prefix (pfx "10.0.0.0/24") then
                Route.with_local_pref r 300
              else r)
            base
        in
        let base = Rib.of_routes base and updated = Rib.of_routes updated in
        match Hoyan_rcl.Verify.check ast ~base ~updated with
        | Hoyan_rcl.Verify.Satisfied ->
            Printf.printf "against the Figure-6 RIBs: SATISFIED\n"
        | Hoyan_rcl.Verify.Violated vs ->
            Printf.printf "against the Figure-6 RIBs: VIOLATED\n";
            List.iter
              (fun v ->
                Printf.printf "  %s\n" (Hoyan_rcl.Verify.violation_to_string v))
              vs
      end;
      0

let rcl_cmd =
  let spec =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SPEC" ~doc:"The RCL specification.")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Also evaluate against the paper's Figure-6 example RIBs.")
  in
  Cmd.v
    (Cmd.info "rcl" ~doc:"Parse (and optionally evaluate) an RCL intent")
    Term.(const rcl $ spec $ explain)

(* ------------------------------------------------------------------ *)
(* hoyan diagnose / audit / vsb / case                                 *)
(* ------------------------------------------------------------------ *)

let diagnose params seed =
  let g = gen params seed in
  let rib = (Route_sim.run g.G.model ~input_routes:g.G.input_routes ()).Route_sim.rib in
  let traffic = Traffic_sim.run g.G.model ~rib ~flows:g.G.flows () in
  let monitored =
    Hoyan_monitor.Route_monitor.observe (Hoyan_monitor.Route_monitor.create ())
      rib
  in
  let loads =
    Hoyan_monitor.Traffic_monitor.observe_link_loads
      (Hoyan_monitor.Traffic_monitor.create ())
      traffic.Traffic_sim.link_load
  in
  let report =
    Hoyan_diag.Validate.daily ~simulated_rib:rib ~monitored_rib:monitored
      ~topo:g.G.model.Hoyan_sim.Model.topo
      ~simulated_loads:traffic.Traffic_sim.link_load ~monitored_loads:loads ()
  in
  Printf.printf
    "daily accuracy validation: %d routes checked, %d links checked\n"
    report.Hoyan_diag.Validate.rep_routes_checked
    report.Hoyan_diag.Validate.rep_links_checked;
  Printf.printf "route discrepancies: %d; load discrepancies: %d -> %s\n"
    (List.length report.Hoyan_diag.Validate.rep_route_issues)
    (List.length report.Hoyan_diag.Validate.rep_load_issues)
    (if Hoyan_diag.Validate.is_accurate report then "ACCURATE"
     else "NEEDS ROOT-CAUSE ANALYSIS");
  0

let diagnose_cmd =
  Cmd.v
    (Cmd.info "diagnose" ~doc:"Run the daily accuracy cross-validation")
    Term.(const diagnose $ scale_arg $ seed_arg)

let audit params seed =
  let g = gen params seed in
  let base =
    Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
      ~monitored_flows:g.G.flows
  in
  let rib = Lazy.force base.Preprocess.b_rib in
  let tasks =
    [
      Audit.critical_prefix_everywhere
        ~prefix:(Prefix.of_string_exn "0.0.0.0/0");
      Audit.utilization_bound ~max_util:0.95;
      Audit.group_consistency ~name:"borders" ~group:g.G.borders;
    ]
  in
  let findings =
    Audit.run_all tasks ~model:g.G.model ~rib ~traffic:base.Preprocess.b_traffic
  in
  if findings = [] then begin
    print_endline "all audit tasks clean";
    0
  end
  else begin
    List.iter
      (fun (f : Audit.finding) ->
        Printf.printf "%s: %s\n" f.Audit.af_task f.Audit.af_detail)
      findings;
    1
  end

let audit_cmd =
  Cmd.v
    (Cmd.info "audit" ~doc:"Run the daily configuration-audit tasks")
    Term.(const audit $ scale_arg $ seed_arg)

let vsb () =
  List.iter
    (fun (d : Hoyan_diag.Vsb_test.detection) ->
      Printf.printf "%-30s %s\n" d.Hoyan_diag.Vsb_test.det_dimension
        (if d.Hoyan_diag.Vsb_test.det_detected then "DETECTED" else "missed"))
    (Hoyan_diag.Vsb_test.run_all ());
  0

let vsb_cmd =
  Cmd.v
    (Cmd.info "vsb" ~doc:"Differential-test the 16 Table-5 VSB dimensions")
    Term.(const vsb $ const ())

let case name =
  let sc =
    match name with
    | "fig10a" -> S.fig10a ()
    | "fig10b" -> S.fig10b ()
    | _ -> failwith "unknown case (fig10a | fig10b)"
  in
  Printf.printf "%s\n%s\n\n" sc.S.sc_name sc.S.sc_description;
  let res = Verify_request.run sc.S.sc_base sc.S.sc_request in
  print_string (Verify_request.report res);
  if res.Verify_request.vr_ok then 0 else 1

let case_cmd =
  let case_arg =
    Arg.(required
         & pos 0
             (some (enum [ ("fig10a", "fig10a"); ("fig10b", "fig10b") ]))
             None
         & info [] ~docv:"CASE" ~doc:"fig10a or fig10b")
  in
  Cmd.v
    (Cmd.info "case" ~doc:"Replay a real-world incident from the paper (§6.1)")
    Term.(const case $ case_arg)

(* ------------------------------------------------------------------ *)
(* hoyan trace summarize                                               *)
(* ------------------------------------------------------------------ *)

let print_summary_table title (rows : Trace.summary_row list) =
  if rows <> [] then begin
    Printf.printf "%s\n" title;
    Printf.printf "  %-28s %8s %12s %12s %12s\n" "name" "count" "total(ms)"
      "mean(ms)" "max(ms)";
    List.iter
      (fun (r : Trace.summary_row) ->
        Printf.printf "  %-28s %8d %12.3f %12.3f %12.3f\n" r.Trace.sr_name
          r.Trace.sr_count r.Trace.sr_total_ms r.Trace.sr_mean_ms
          r.Trace.sr_max_ms)
      rows;
    print_newline ()
  end

let trace_summarize file top =
  match Tjson.of_string (read_file file) with
  | Error msg ->
      Printf.eprintf "%s: JSON parse error: %s\n" file msg;
      1
  | Ok json -> (
      match Trace.events_of_json json with
      | Error msg ->
          Printf.eprintf "%s: not a trace file: %s\n" file msg;
          1
      | Ok events ->
          Printf.printf "%s: %d events\n\n" file (List.length events);
          print_summary_table "per-phase (by span name):"
            (Trace.summarize events);
          let steps =
            List.filter
              (fun (e : Trace.event) ->
                String.equal e.Trace.te_name "worker.step")
              events
          in
          let by_subtask = Trace.summarize_by_arg "id" steps in
          let shown =
            List.filteri (fun i _ -> i < top) by_subtask
          in
          print_summary_table
            (Printf.sprintf "per-subtask (worker.step, top %d of %d by time):"
               (List.length shown) (List.length by_subtask))
            shown;
          0)

let trace_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"A Chrome trace-event JSON written by $(b,--trace).")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Show the $(docv) most expensive subtasks.")
  in
  let summarize_cmd =
    Cmd.v
      (Cmd.info "summarize"
         ~doc:"Print per-phase and per-subtask time breakdowns of a trace")
      Term.(const trace_summarize $ file $ top)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect trace files written by --trace")
    [ summarize_cmd ]

(* ------------------------------------------------------------------ *)
(* hoyan serve                                                         *)
(* ------------------------------------------------------------------ *)

let serve params seed requests_file out_file metrics_out metrics_every
    queue_depth tenant_quota cache_capacity budget batch selfcheck
    no_timing =
  let text =
    try
      if requests_file = "-" then In_channel.input_all stdin
      else In_channel.with_open_text requests_file In_channel.input_all
    with Sys_error msg ->
      prerr_endline ("serve: " ^ msg);
      exit 2
  in
  match Request.parse text with
  | Error msg ->
      Printf.eprintf "serve: request stream: %s\n" msg;
      2
  | Ok requests ->
      let tm = Telemetry.create () in
      Telemetry.set tm;
      let g = gen params seed in
      let base =
        Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
          ~monitored_flows:g.G.flows
      in
      let config =
        {
          Server.c_queue_depth = queue_depth;
          c_tenant_quota = tenant_quota;
          c_cache_capacity = cache_capacity;
          c_default_budget_s =
            Option.value budget ~default:Server.default_config.Server.c_default_budget_s;
        }
      in
      let srv = Server.create ~tm ~config () in
      let snap = Server.register_snapshot srv base in
      Printf.printf "%s\n" (Hoyan_server.Snapshot.to_string snap);
      let oc = Option.map open_out out_file in
      let emit r =
        let s = Server.response_to_string ~timing:(not no_timing) r in
        match oc with Some oc -> output_string oc s | None -> print_string s
      in
      let served = ref 0 in
      let last_dump = ref 0 in
      let dump_metrics () =
        Option.iter
          (fun path -> Metrics.write_prometheus_file tm.Telemetry.metrics path)
          metrics_out
      in
      let maybe_dump () =
        if metrics_every > 0 && !served - !last_dump >= metrics_every then begin
          last_dump := !served;
          dump_metrics ()
        end
      in
      let flush_queue () =
        let rs = Server.drain srv in
        List.iter
          (fun r ->
            emit r;
            incr served;
            maybe_dump ())
          rs;
        rs
      in
      let all = ref [] in
      let pending_in_batch = ref 0 in
      List.iter
        (fun rq ->
          (match Server.submit srv rq with
          | Stdlib.Ok () -> incr pending_in_batch
          | Stdlib.Error r ->
              emit r;
              incr served;
              all := r :: !all;
              maybe_dump ());
          if !pending_in_batch >= batch then begin
            all := List.rev_append (flush_queue ()) !all;
            pending_in_batch := 0
          end)
        requests;
      all := List.rev_append (flush_queue ()) !all;
      Option.iter close_out oc;
      dump_metrics ();
      Option.iter
        (fun path ->
          Printf.printf "metrics: %d updates -> %s\n"
            (Metrics.ops tm.Telemetry.metrics)
            path)
        metrics_out;
      let responses = List.rev !all in
      (* --selfcheck: every executed verdict must be byte-identical to a
         direct Verify_request.run of the same request (the service
         contract the bench also asserts) *)
      let mismatches =
        if not selfcheck then 0
        else
          List.fold_left
            (fun acc (r : Server.response) ->
              match r.Server.rs_status with
              | Server.Ok | Server.Fail -> (
                  match List.nth_opt requests r.Server.rs_seq with
                  | None -> acc
                  | Some rq ->
                      let snap =
                        match rq.Request.r_snapshot with
                        | Some d ->
                            Option.value (Server.find_snapshot srv d)
                              ~default:snap
                        | None -> snap
                      in
                      let st, body = Server.run_direct snap rq in
                      if
                        st = r.Server.rs_status
                        && String.equal body r.Server.rs_body
                      then acc
                      else begin
                        Printf.eprintf
                          "selfcheck MISMATCH: request %s (seq %d)\n"
                          r.Server.rs_id r.Server.rs_seq;
                        acc + 1
                      end)
              | _ -> acc)
            0 responses
      in
      if selfcheck then
        Printf.printf "selfcheck: %d verdict(s) compared, %d mismatch(es)\n"
          (List.length
             (List.filter
                (fun (r : Server.response) ->
                  match r.Server.rs_status with
                  | Server.Ok | Server.Fail -> true
                  | _ -> false)
                responses))
          mismatches;
      print_string (Server.report srv);
      Telemetry.set Telemetry.noop;
      let errors =
        List.exists
          (fun (r : Server.response) ->
            match r.Server.rs_status with Server.Error _ -> true | _ -> false)
          responses
      in
      if errors || mismatches > 0 then 1 else 0

let serve_cmd =
  let requests =
    Arg.(value & opt string "-"
         & info [ "requests" ] ~docv:"FILE"
             ~doc:"Request stream in the serve transport format ($(b,-) = \
                   stdin; see README for the grammar).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write responses to $(docv) instead of stdout.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write server metrics in Prometheus text exposition \
                   format to $(docv) on shutdown (and periodically with \
                   $(b,--metrics-every)).")
  in
  let metrics_every =
    Arg.(value & opt int 0
         & info [ "metrics-every" ] ~docv:"N"
             ~doc:"Also rewrite $(b,--metrics-out) every $(docv) served \
                   requests (0 = only on shutdown).")
  in
  let queue_depth =
    Arg.(value & opt int Server.default_config.Server.c_queue_depth
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admission bound: maximum queued requests.")
  in
  let tenant_quota =
    Arg.(value & opt int Server.default_config.Server.c_tenant_quota
         & info [ "tenant-quota" ] ~docv:"N"
             ~doc:"Admission bound: maximum queued requests per tenant.")
  in
  let cache_capacity =
    Arg.(value & opt int Server.default_config.Server.c_cache_capacity
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"Result-cache entries (LRU beyond; 0 disables).")
  in
  let budget =
    Arg.(value & opt (some float) None
         & info [ "budget" ] ~docv:"SECONDS"
             ~doc:"Default per-request execution budget (seconds) \
                   for requests that name none.")
  in
  let batch =
    Arg.(value & opt int 32
         & info [ "batch" ] ~docv:"N"
             ~doc:"Drain the queue after every $(docv) admitted requests \
                   (the service loop's batching grain).")
  in
  let selfcheck =
    Arg.(value & flag
         & info [ "selfcheck" ]
             ~doc:"After serving, re-run every executed request directly \
                   through the verification pipeline and assert the \
                   served verdict is byte-identical.")
  in
  let no_timing =
    Arg.(value & flag
         & info [ "no-timing" ]
             ~doc:"Omit latency fields from responses (stable output for \
                   smoke tests).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve verification requests over a shared snapshot")
    Term.(
      const serve $ scale_arg $ seed_arg $ requests $ out $ metrics_out
      $ metrics_every $ queue_depth $ tenant_quota $ cache_capacity
      $ budget $ batch $ selfcheck $ no_timing)

(* ------------------------------------------------------------------ *)
(* hoyan whatif: exhaustive k-failure verification                      *)
(* ------------------------------------------------------------------ *)

let whatif params seed k devices no_links prefix on prop_name max_util
    max_scenarios no_prune json selfcheck trace_out metrics_out journal_out =
  with_telemetry ~trace_out ~metrics_out ~journal_out @@ fun () ->
  let module Kfailure = Hoyan_core.Kfailure in
  let g = gen params seed in
  let model = g.G.model in
  let links = not no_links in
  if no_links && not devices then begin
    prerr_endline "whatif: --no-links without --devices leaves nothing to fail";
    2
  end
  else if k < 1 || Option.fold ~none:false ~some:(fun n -> n < 1) max_scenarios
  then begin
    prerr_endline "whatif: -k and --max-scenarios must be at least 1";
    2
  end
  else
    let prefix =
      match prefix with
      | Some p -> (
          match Prefix.of_string p with
          | Some p -> Ok p
          | None -> Error (Printf.sprintf "whatif: bad --prefix %S" p))
      | None -> (
          (* default: the first monitored input route's prefix *)
          match g.G.input_routes with
          | r :: _ -> Ok r.Route.prefix
          | [] -> Error "whatif: no input routes; pass --prefix")
    in
    match prefix with
    | Error msg ->
        prerr_endline msg;
        2
    | Ok prefix -> (
        let monitored =
          match on with
          | Some s -> String.split_on_char ',' s |> List.filter (( <> ) "")
          | None -> g.G.borders
        in
        let prop =
          match prop_name with
          | "reach" ->
              Ok (Kfailure.prefix_survives ~prefix ~devices:monitored)
          | "overload" -> Ok (Kfailure.no_overload ~max_util)
          | p ->
              Error
                (Printf.sprintf
                   "whatif: unknown --prop %S (reach or overload)" p)
        in
        match prop with
        | Error msg ->
            prerr_endline msg;
            2
        | Ok prop ->
            let t0 = Unix.gettimeofday () in
            let res =
              Kfailure.check ~prune:(not no_prune) ?max_scenarios ~devices
                ~links model ~input_routes:g.G.input_routes ~flows:g.G.flows
                ~k prop
            in
            let dt = Unix.gettimeofday () -. t0 in
            let mismatches =
              if not selfcheck then 0
              else begin
                (* in-process soundness oracle: the pruned sweep must be
                   indistinguishable from brute force *)
                let brute =
                  Kfailure.check ~prune:false ~devices ~links model
                    ~input_routes:g.G.input_routes ~flows:g.G.flows ~k prop
                in
                let viol r =
                  List.map
                    (fun (s : Kfailure.scenario_result) ->
                      List.map Kfailure.failure_to_string
                        s.Kfailure.sr_failures)
                    r.Kfailure.kr_violations
                  |> List.sort compare
                in
                let b = viol brute and p = viol res in
                if b = p then begin
                  Printf.printf
                    "selfcheck: pruned == brute force (%d violating \
                     scenario(s))\n"
                    (List.length b);
                  0
                end
                else begin
                  Printf.eprintf
                    "selfcheck MISMATCH: brute %d vs pruned %d violating \
                     scenario(s)\n"
                    (List.length b) (List.length p);
                  1
                end
              end
            in
            if json then begin
              let scenario_json (s : Kfailure.scenario_result) =
                Tjson.Obj
                  [
                    ( "failures",
                      Tjson.List
                        (List.map
                           (fun f ->
                             Tjson.String (Kfailure.failure_to_string f))
                           s.Kfailure.sr_failures) );
                    ( "violation",
                      match s.Kfailure.sr_violation with
                      | Some r -> Tjson.String r
                      | None -> Tjson.Null );
                  ]
              in
              print_endline
                (Tjson.to_string
                   (Tjson.Obj
                      [
                        ("property", Tjson.String res.Kfailure.kr_property);
                        ("k", Tjson.Int res.Kfailure.kr_k);
                        ("total", Tjson.Int res.Kfailure.kr_total);
                        ("checked", Tjson.Int res.Kfailure.kr_checked);
                        ("carried", Tjson.Int res.Kfailure.kr_carried);
                        ("replicated", Tjson.Int res.Kfailure.kr_replicated);
                        ("static", Tjson.Int res.Kfailure.kr_static);
                        ("simulated", Tjson.Int res.Kfailure.kr_simulated);
                        ("sampled", Tjson.Bool res.Kfailure.kr_sampled);
                        ( "violations",
                          Tjson.List
                            (List.map scenario_json res.Kfailure.kr_violations)
                        );
                        ("seconds", Tjson.Float dt);
                      ]))
            end
            else begin
              print_string (Kfailure.body res);
              Printf.printf "time: %.3fs\n" dt
            end;
            if mismatches > 0 then 2
            else if res.Kfailure.kr_violations <> [] then 1
            else 0)

let whatif_cmd =
  let k =
    Arg.(value & opt int 1
         & info [ "k" ] ~docv:"K"
             ~doc:"Check the property under every combination of at most \
                   $(docv) simultaneous failures.")
  in
  let devices =
    Arg.(value & flag
         & info [ "devices" ]
             ~doc:"Include single-device failures in the candidate set.")
  in
  let no_links =
    Arg.(value & flag
         & info [ "no-links" ]
             ~doc:"Exclude link failures from the candidate set (with \
                   $(b,--devices): device failures only).")
  in
  let prefix =
    Arg.(value & opt (some string) None
         & info [ "prefix" ] ~docv:"PREFIX"
             ~doc:"Prefix the $(b,reach) property tracks (default: the \
                   first monitored input route's prefix).")
  in
  let on =
    Arg.(value & opt (some string) None
         & info [ "on" ] ~docv:"DEV,DEV"
             ~doc:"Devices the $(b,reach) property must hold on, \
                   comma-separated (default: the generated border set).")
  in
  let prop =
    Arg.(value & opt string "reach"
         & info [ "prop" ] ~docv:"PROP"
             ~doc:"Property: $(b,reach) (prefix survives on the monitored \
                   devices; statically prunable) or $(b,overload) (no link \
                   above $(b,--max-util); traffic-dependent, every \
                   scenario simulates).")
  in
  let max_util =
    Arg.(value & opt float 0.95
         & info [ "max-util" ] ~docv:"F"
             ~doc:"Utilization bound for $(b,--prop overload).")
  in
  let max_scenarios =
    Arg.(value & opt (some int) None
         & info [ "max-scenarios" ] ~docv:"N"
             ~doc:"Explicit sampling escape hatch: simulate at most \
                   $(docv) class representatives (deterministic stride); \
                   the drop is reported, never silent.")
  in
  let no_prune =
    Arg.(value & flag
         & info [ "no-prune" ]
             ~doc:"Bypass the static failure-equivalence analysis and \
                   simulate every scenario (the brute-force baseline).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Machine-readable JSON result output.")
  in
  let selfcheck =
    Arg.(value & flag
         & info [ "selfcheck" ]
             ~doc:"Also run the brute-force sweep in-process and assert \
                   the violating scenario sets are identical (exit 2 on \
                   mismatch).")
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Exhaustive k-failure what-if verification: statically \
             partition the failure scenarios into verdict-equivalence \
             classes (blast-radius pruning), simulate one representative \
             per class, and report per-tier counts")
    Term.(
      const whatif $ scale_arg $ seed_arg $ k $ devices $ no_links $ prefix
      $ on $ prop $ max_util $ max_scenarios $ no_prune $ json $ selfcheck
      $ trace_out_arg $ metrics_out_arg $ journal_out_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Hoyan: global WAN change verification (SIGCOMM'25 reproduction)" in
  let info = Cmd.info "hoyan" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simulate_cmd; verify_cmd; lint_cmd; analyze_cmd; diff_cmd;
            rcl_cmd; diagnose_cmd; audit_cmd; vsb_cmd; case_cmd; trace_cmd;
            serve_cmd; whatif_cmd;
          ]))
