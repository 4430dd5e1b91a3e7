(* The verification server (lib/server): snapshot store, result cache,
   admission control, budgets, and the byte-identity contract — every
   served verdict (cached or not) is byte-identical to a direct
   Verify_request.run of the same request over the same snapshot. *)

open Hoyan_net
module G = Hoyan_workload.Generator
module Types = Hoyan_config.Types
module Cp = Hoyan_config.Change_plan
module Printer = Hoyan_config.Printer
module Model = Hoyan_sim.Model
module Smap = Types.Smap
module Preprocess = Hoyan_core.Preprocess
module VR = Hoyan_core.Verify_request
module Intents = Hoyan_core.Intents
module Cache = Hoyan_server.Cache
module Snapshot = Hoyan_server.Snapshot
module Request = Hoyan_server.Request
module Server = Hoyan_server.Server
module Incremental = Hoyan_sim.Incremental
module Telemetry = Hoyan_telemetry.Telemetry
module Trace = Hoyan_telemetry.Trace
module Journal = Hoyan_telemetry.Journal

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let pfx = Prefix.of_string_exn

let qtest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4244 |]) t

let small = lazy (G.generate G.small)

let base_of (g : G.t) =
  Preprocess.prepare g.G.model ~monitored_routes:g.G.input_routes
    ~monitored_flows:g.G.flows

let base = lazy (base_of (Lazy.force small))
let configs () = (Lazy.force small).G.model.Model.configs

(* the digest of a plan's one application to [configs] *)
let plan_digest ~configs plan =
  Request.plan_digest
    (Hoyan_analysis.Differential.diff (Hoyan_analysis.Lint.make configs) plan)

(* r00-bdr01 is vendorA at the small scale's fixed seed *)
let border = "r00-bdr01"

let pref_block pref =
  Printf.sprintf
    "route-map ISP_IN permit 10\n set community 64512:100 additive\n set \
     local-preference %d\n"
    pref

let mk_rq ?tenant ?snapshot ?budget_s ?no_cache ?(pref = 250)
    ?(intents = [ Intents.Route_change "PRE = POST" ]) ~id cls =
  let plan = Cp.make id ~commands:[ (border, pref_block pref) ] in
  Request.make ?tenant ?snapshot ?budget_s ?no_cache ~plan ~intents ~id cls

(* a k-failure sweep: does a prefix survive on its border (the small
   scale's example what-if)? *)
let reach =
  Intents.Route_reach
    {
      rr_prefix = pfx "150.0.79.0/24";
      rr_devices = [ "r00-bdr00" ];
      rr_expect = true;
    }

let whatif_rq ?tenant ?(k = 1) ?(intents = [ reach ]) ~id () =
  Request.make ?tenant ~intents ~k ~id Request.Whatif

let contains s needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) s 0);
    true
  with Not_found -> false

(* ------------------------------------------------------------------ *)
(* the LRU cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create ~capacity:4 in
  check tbool "miss on empty" true (Cache.find c "a" = None);
  Cache.add c "a" 1;
  check tbool "hit after add" true (Cache.find c "a" = Some 1);
  Cache.add c "a" 2;
  check tbool "overwrite keeps one entry" true (Cache.size c = 1);
  check tbool "overwrite visible" true (Cache.find c "a" = Some 2);
  check tint "2 hits" 2 (Cache.hits c);
  check tint "1 miss" 1 (Cache.misses c)

let test_cache_lru_bound () =
  let c = Cache.create ~capacity:3 in
  List.iter (fun k -> Cache.add c k k) [ "a"; "b"; "c" ];
  (* touch "a" so "b" is now least recent *)
  ignore (Cache.find c "a");
  Cache.add c "d" "d";
  check tint "size stays at capacity" 3 (Cache.size c);
  check tint "one eviction" 1 (Cache.evictions c);
  check tbool "LRU entry (b) evicted" true (Cache.find c "b" = None);
  check tbool "recently-used (a) kept" true (Cache.find c "a" = Some "a");
  check tbool "newest (d) kept" true (Cache.find c "d" = Some "d")

let test_cache_zero_capacity () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  check tint "capacity 0 stores nothing" 0 (Cache.size c);
  check tbool "capacity 0 never hits" true (Cache.find c "a" = None)

(* ------------------------------------------------------------------ *)
(* digests and cache keys                                              *)
(* ------------------------------------------------------------------ *)

(* PR7's restatement-is-no-op property lifted to cache keys: the plan
   digest ignores the plan's id and block duplication — only the
   patched configurations (plus issues, topo ops, routes) matter.  The
   inputs are every device's restated config, plus a device the plan
   adds and configures with a block, which keys on its patched config
   like any other device. *)
let prop_digest_restatement_stable =
  let g = Lazy.force small in
  let configs = g.G.model.Model.configs in
  let devices = Array.of_list (List.map fst (Smap.bindings configs)) in
  let fresh =
    {
      Topology.name = "zz-new01";
      vendor = "vendorA";
      asn = 64512;
      router_id = Ip.of_string_exn "10.254.0.1";
      region = "r00";
      role = Topology.Wan_core;
    }
  in
  (* every input exactly once, in order *)
  let next = ref (-1) in
  QCheck.Test.make
    ~name:"plan digest: id-independent and duplicate-block-stable"
    ~count:(Array.length devices + 1)
    (QCheck.make ~print:string_of_int (fun _ ->
         incr next;
         !next mod (Array.length devices + 1)))
    (fun i ->
      let plan id blocks =
        if i < Array.length devices then
          let dev = devices.(i) in
          let block = Printer.print (Smap.find dev configs) in
          Cp.make id ~commands:(List.init blocks (fun _ -> (dev, block)))
        else
          Cp.make id
            ~topo_ops:[ Cp.Add_device fresh ]
            ~commands:
              (List.init blocks (fun _ ->
                   ("zz-new01", "router bgp 64512\n network 198.51.100.0/24\n")))
      in
      let d1 = plan_digest ~configs (plan "restate" 1) in
      let d2 = plan_digest ~configs (plan "other-id" 2) in
      String.equal d1 d2
      && not (String.equal d1 (plan_digest ~configs (Cp.make "e"))))

let test_digest_sensitive () =
  let configs = configs () in
  let d pref =
    plan_digest ~configs
      (Cp.make "p" ~commands:[ (border, pref_block pref) ])
  in
  check tbool "different preference, different digest" false
    (String.equal (d 240) (d 250));
  let w =
    plan_digest ~configs
      (Cp.make "w" ~withdraw:[ pfx "10.0.0.0/24" ])
  in
  check tbool "withdrawal changes the digest" false
    (String.equal w (plan_digest ~configs (Cp.make "w")))

let test_intents_digest_order () =
  let a = Intents.Route_change "PRE = POST" in
  let b = Intents.Max_utilization 0.9 in
  check tbool "intent order is part of the digest" false
    (String.equal
       (Request.intents_digest [ a; b ])
       (Request.intents_digest [ b; a ]))

let test_cache_key_class () =
  let configs = configs () in
  let key cls =
    Request.cache_key ~snapshot_digest:"snap" ~configs (mk_rq ~id:"k" cls)
  in
  check tbool "class is part of the key" false
    (String.equal (key Request.Simulate) (key Request.Lint));
  (* tenant and id are NOT part of the key: duplicates across tenants
     must share one entry *)
  let k1 =
    Request.cache_key ~snapshot_digest:"snap" ~configs
      (mk_rq ~tenant:"a" ~id:"x" Request.Simulate)
  in
  let k2 =
    Request.cache_key ~snapshot_digest:"snap" ~configs
      (mk_rq ~tenant:"b" ~id:"y" Request.Simulate)
  in
  check tstr "tenant/id do not affect the key" k1 k2;
  let whatif k =
    Request.cache_key ~snapshot_digest:"snap" ~configs (whatif_rq ~k ~id:"w" ())
  in
  check tbool "a whatif's k is part of the key" false
    (String.equal (whatif 1) (whatif 2))

(* ------------------------------------------------------------------ *)
(* the transport                                                       *)
(* ------------------------------------------------------------------ *)

let test_transport_roundtrip () =
  let rqs =
    [
      mk_rq ~tenant:"netops" ~budget_s:60. ~id:"a" Request.Simulate;
      mk_rq ~no_cache:true ~id:"b" Request.Lint;
      Request.make
        ~plan:(Cp.make "c" ~withdraw:[ pfx "10.1.0.0/16" ])
        ~intents:
          [
            Intents.Route_reach
              {
                rr_prefix = pfx "10.1.0.0/16";
                rr_devices = [ border ];
                rr_expect = false;
              };
          ]
        ~id:"c" Request.Precheck;
    ]
  in
  let text = String.concat "" (List.map Request.print rqs) in
  match Request.parse text with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok parsed ->
      check tint "same count" (List.length rqs) (List.length parsed);
      List.iter2
        (fun (a : Request.t) (b : Request.t) ->
          check tstr "id" a.Request.r_id b.Request.r_id;
          check tstr "tenant" a.Request.r_tenant b.Request.r_tenant;
          check tbool "class" true (a.Request.r_class = b.Request.r_class);
          check tbool "budget" true (a.Request.r_budget_s = b.Request.r_budget_s);
          check tbool "no-cache" true (a.Request.r_no_cache = b.Request.r_no_cache);
          check tbool "intents" true (a.Request.r_intents = b.Request.r_intents);
          let cfg = configs () in
          check tstr "plan digest survives the round trip"
            (plan_digest ~configs:cfg a.Request.r_plan)
            (plan_digest ~configs:cfg b.Request.r_plan))
        rqs parsed

let test_transport_errors () =
  let expect_err text needle =
    match Request.parse text with
    | Ok _ -> Alcotest.failf "expected a parse error (%s)" needle
    | Error e ->
        check tbool
          (Printf.sprintf "error %S mentions %s" e needle)
          true (contains e needle)
  in
  expect_err "request a frobnicate\nend\n" "class";
  expect_err "request a lint\nplan dev\nnever closed\n" "end-plan";
  expect_err "request a lint\nwithdraw not-a-prefix\nend\n" "prefix";
  expect_err "bogus top-level line\n" "line 1"

(* ------------------------------------------------------------------ *)
(* snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_identity () =
  let srv = Server.create () in
  let s1 = Server.register_snapshot srv (Lazy.force base) in
  (* identical content (freshly generated) re-registers as the same
     snapshot *)
  let s2 = Server.register_snapshot srv (base_of (G.generate G.small)) in
  check tstr "same content, same digest" s1.Snapshot.sn_digest
    s2.Snapshot.sn_digest;
  check tint "one snapshot registered" 1 (List.length (Server.snapshots srv));
  let g9 = G.generate { G.small with G.g_seed = 9 } in
  let s3 = Server.register_snapshot srv (base_of g9) in
  check tbool "different content, different digest" false
    (String.equal s1.Snapshot.sn_digest s3.Snapshot.sn_digest);
  check tint "two snapshots" 2 (List.length (Server.snapshots srv))

(* Registration dedups on the digest in the server's own table: the same
   base, and a content-identical but separately built one, give back the
   registered snapshot object, counted once per hit. *)
let test_snapshot_register_dedup () =
  let tm = Telemetry.create () in
  let srv = Server.create ~tm () in
  let b = Lazy.force base in
  let s1 = Server.register_snapshot srv b in
  let s2 = Server.register_snapshot srv b in
  check tbool "same digest" true
    (String.equal s1.Snapshot.sn_digest s2.Snapshot.sn_digest);
  check tbool "second registration returns the existing snapshot" true
    (s1 == s2);
  let s3 = Server.register_snapshot srv (base_of (Lazy.force small)) in
  check tbool "identical content dedups too" true (s1 == s3);
  check tint "two dedup hits counted" 2
    (Hoyan_telemetry.Metrics.counter_value tm.Telemetry.metrics
       "hoyan_server_snapshot_dedup_total")

(* ------------------------------------------------------------------ *)
(* the serve contract                                                  *)
(* ------------------------------------------------------------------ *)

let drain_one srv =
  match Server.drain srv with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs)

let submit_ok srv rq =
  match Server.submit srv rq with
  | Ok () -> ()
  | Error r ->
      Alcotest.failf "submit rejected: %s"
        (Server.status_to_string r.Server.rs_status)

let test_server_matches_direct () =
  let srv = Server.create () in
  let snap = Server.register_snapshot srv (Lazy.force base) in
  List.iter
    (fun cls ->
      let rq = mk_rq ~id:("c-" ^ Request.class_to_string cls) cls in
      submit_ok srv rq;
      let r = drain_one srv in
      let st, body = Server.run_direct snap rq in
      check tbool
        (Request.class_to_string cls ^ ": status matches direct")
        true
        (st = r.Server.rs_status);
      check tstr
        (Request.class_to_string cls ^ ": body byte-identical to direct")
        body r.Server.rs_body)
    [ Request.Lint; Request.Precheck; Request.Simulate; Request.Diff ]

(* A whatif sweep is served through the same dispatch: uncached and
   cached, its body is [Server.run_direct]'s. *)
let test_whatif_matches_direct () =
  let srv = Server.create () in
  let snap = Server.register_snapshot srv (Lazy.force base) in
  let rq = whatif_rq ~id:"w-1" () in
  let st, body = Server.run_direct snap rq in
  check tbool "the sweep renders a verdict" true (contains body "whatif:");
  submit_ok srv rq;
  let r1 = drain_one srv in
  submit_ok srv (whatif_rq ~tenant:"other" ~id:"w-2" ());
  let r2 = drain_one srv in
  check tbool "first is uncached" false r1.Server.rs_cached;
  check tbool "duplicate is served from the cache" true r2.Server.rs_cached;
  List.iter
    (fun (r : Server.response) ->
      let what = Printf.sprintf "cached=%b" r.Server.rs_cached in
      check tbool (what ^ ": status matches direct") true
        (st = r.Server.rs_status);
      check tstr (what ^ ": body byte-identical to direct") body
        r.Server.rs_body)
    [ r1; r2 ]

(* A whatif checks exactly one `intent reach present' stanza; any other
   intent list is an execution error (never a sweep that ignores some
   intents), so it is not cached and is counted as an error. *)
let test_whatif_intents_checked () =
  let srv = Server.create () in
  let snap = Server.register_snapshot srv (Lazy.force base) in
  let rcl = Intents.Route_change "PRE = POST" in
  (* the sweep runs over the snapshot base, so a plan would be digested
     into the cache key but never read *)
  let plan = Cp.make "p" ~commands:[ (border, pref_block 250) ] in
  let cases =
    [
      ("two-intents", [ reach; rcl ], Cp.make "p", "exactly one");
      ("no-reach", [ rcl ], Cp.make "p", "reach present");
      ("with-plan", [ reach ], plan, "snapshot base");
    ]
  in
  List.iter
    (fun (id, intents, plan, needle) ->
      let rq = { (whatif_rq ~intents ~id ()) with Request.r_plan = plan } in
      (match Server.run_direct snap rq with
      | Server.Error msg, "" ->
          check tbool (Printf.sprintf "%s: %S names the problem" id msg) true
            (contains msg needle)
      | st, _ ->
          Alcotest.failf "%s: expected an error, got %s" id
            (Server.status_to_string st));
      List.iter
        (fun n ->
          submit_ok srv { rq with Request.r_id = Printf.sprintf "%s-%d" id n };
          let r = drain_one srv in
          check tbool (id ^ ": served as an error") true
            (match r.Server.rs_status with Server.Error _ -> true | _ -> false);
          check tbool (id ^ ": not from the cache") false r.Server.rs_cached)
        [ 1; 2 ])
    cases;
  let st = Server.stats srv in
  check tint "every one counted as an error" 6 st.Server.st_errors;
  check tint "none completed" 0 st.Server.st_completed;
  check tint "no cache hit" 0 st.Server.st_cache_hits

(* The byte-identity contract under load: a mixed multi-tenant stream
   with cache reuse and LRU eviction.  The pool is 4 classes x every
   border x 1-2 local-preference values x 2 of 3 intent sets, so the
   same plan and class also recur with different intents.  The stream
   draws from it with a hot quarter, so a cache smaller than the pool
   both hits and evicts.  Every served body must equal
   [Server.run_direct]'s body. *)
let test_mixed_stream_matches_direct () =
  let g = Lazy.force small in
  let block dev pref =
    match Model.config g.G.model dev with
    | Some c when not (String.equal c.Types.dc_vendor "vendorA") ->
        Printf.sprintf
          "route-policy ISP_IN permit node 10\n apply community 64512:100 \
           additive\n apply local-preference %d\n"
          pref
    | _ -> pref_block pref
  in
  let intents dev = function
    | 0 -> [ Intents.Route_change "PRE = POST" ]
    | 1 ->
        [
          Intents.Route_change
            (Printf.sprintf
               "forall device in {%s} : PRE |> count() = POST |> count()" dev);
        ]
    | _ -> []
  in
  let classes =
    [ Request.Lint; Request.Precheck; Request.Simulate; Request.Diff ]
  in
  let pool =
    List.mapi (fun bi dev -> (bi, dev)) g.G.borders
    |> List.concat_map (fun (bi, dev) ->
           List.concat_map
             (fun pref ->
               List.concat
                 (List.mapi
                    (fun ci cls ->
                      List.map
                        (fun v ->
                          let id =
                            Printf.sprintf "p-%s-%d-%s-%d" dev pref
                              (Request.class_to_string cls)
                              v
                          in
                          Request.make
                            ~plan:
                              (Cp.make id ~commands:[ (dev, block dev pref) ])
                            ~intents:(intents dev v) ~id cls)
                        [ (ci + bi) mod 3; (ci + bi + 1) mod 3 ])
                    classes))
             (if bi mod 2 = 0 then [ 210; 240 ] else [ 230 ]))
    |> Array.of_list
  in
  let n = Array.length pool in
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.c_cache_capacity = n / 2 }
      ()
  in
  let snap = Server.register_snapshot srv (Lazy.force base) in
  let rng = Random.State.make [| 8 |] in
  let n_requests = 300 in
  let responses = ref [] in
  for k = 0 to n_requests - 1 do
    let hot = Random.State.bool rng in
    let p = pool.(Random.State.int rng (if hot then max 1 (n / 4) else n)) in
    submit_ok srv
      {
        p with
        Request.r_id = Printf.sprintf "%s#%d" p.Request.r_id k;
        r_tenant = Printf.sprintf "tenant-%d" (k mod 8);
      };
    if k mod 32 = 31 then
      responses := List.rev_append (Server.drain srv) !responses
  done;
  let responses = List.rev_append (Server.drain srv) !responses in
  check tint "every request answered" n_requests (List.length responses);
  let direct = Hashtbl.create n in
  Array.iter
    (fun (p : Request.t) ->
      Hashtbl.replace direct p.Request.r_id (Server.run_direct snap p))
    pool;
  List.iter
    (fun (r : Server.response) ->
      let pool_id = List.hd (String.split_on_char '#' r.Server.rs_id) in
      let st, body = Hashtbl.find direct pool_id in
      check tbool
        (Printf.sprintf "%s (cached=%b): status matches direct" r.Server.rs_id
           r.Server.rs_cached)
        true
        (st = r.Server.rs_status);
      check tstr
        (Printf.sprintf "%s (cached=%b): body byte-identical to direct"
           r.Server.rs_id r.Server.rs_cached)
        body r.Server.rs_body)
    responses;
  let st = Server.stats srv in
  check tbool "the stream hit the cache" true (st.Server.st_cache_hits > 0);
  check tbool "the stream evicted from the cache" true
    (st.Server.st_cache_evictions > 0)

let test_duplicate_hits_cache () =
  let srv = Server.create () in
  ignore (Server.register_snapshot srv (Lazy.force base));
  let rq1 = mk_rq ~tenant:"a" ~id:"dup-1" Request.Simulate in
  let rq2 = mk_rq ~tenant:"b" ~id:"dup-2" Request.Simulate in
  submit_ok srv rq1;
  let r1 = drain_one srv in
  submit_ok srv rq2;
  let r2 = drain_one srv in
  check tbool "first is uncached" false r1.Server.rs_cached;
  check tbool "duplicate is served from the cache" true r2.Server.rs_cached;
  check tstr "cached body byte-identical" r1.Server.rs_body r2.Server.rs_body;
  check tbool "cached status identical" true
    (r1.Server.rs_status = r2.Server.rs_status);
  let st = Server.stats srv in
  check tint "one cache hit" 1 st.Server.st_cache_hits

let test_no_cache_bypass () =
  let srv = Server.create () in
  ignore (Server.register_snapshot srv (Lazy.force base));
  let rq k = mk_rq ~no_cache:true ~id:("nc-" ^ string_of_int k) Request.Lint in
  submit_ok srv (rq 1);
  ignore (drain_one srv);
  submit_ok srv (rq 2);
  let r = drain_one srv in
  check tbool "no-cache never serves cached" false r.Server.rs_cached;
  let st = Server.stats srv in
  check tint "no-cache records no hits" 0 st.Server.st_cache_hits;
  check tint "no-cache records no misses" 0 st.Server.st_cache_misses

let test_admission () =
  let srv =
    Server.create
      ~config:
        { Server.default_config with Server.c_queue_depth = 2; c_tenant_quota = 1 }
      ()
  in
  ignore (Server.register_snapshot srv (Lazy.force base));
  let reason rq =
    match Server.submit srv rq with
    | Ok () -> "admitted"
    | Error { Server.rs_status = Server.Rejected r; _ } -> r
    | Error _ -> "other"
  in
  check tstr "unknown snapshot rejected" "unknown-snapshot"
    (reason (mk_rq ~snapshot:"no-such-digest" ~id:"u" Request.Lint));
  check tstr "first of tenant admitted" "admitted"
    (reason (mk_rq ~tenant:"a" ~id:"a1" Request.Lint));
  check tstr "tenant over quota rejected" "tenant-quota"
    (reason (mk_rq ~tenant:"a" ~id:"a2" Request.Lint));
  check tstr "second tenant admitted" "admitted"
    (reason (mk_rq ~tenant:"b" ~id:"b1" Request.Lint));
  check tstr "queue full rejected" "queue-full"
    (reason (mk_rq ~tenant:"c" ~id:"c1" Request.Lint));
  (* draining frees the quota and the queue *)
  check tint "both admitted execute" 2 (List.length (Server.drain srv));
  check tstr "tenant quota resets after drain" "admitted"
    (reason (mk_rq ~tenant:"a" ~id:"a3" Request.Lint));
  ignore (Server.drain srv)

let test_budget_timeout () =
  let srv = Server.create () in
  ignore (Server.register_snapshot srv (Lazy.force base));
  submit_ok srv
    (mk_rq ~budget_s:0. ~no_cache:true ~id:"zb" Request.Simulate);
  let r = drain_one srv in
  check tbool "zero budget times out" true (r.Server.rs_status = Server.Timeout);
  check tstr "timed-out verdict is withheld" "" r.Server.rs_body;
  let st = Server.stats srv in
  check tint "timeout counted" 1 st.Server.st_timeouts;
  check tint "not counted as completed" 0 st.Server.st_completed

(* The splice policy: the server keeps nothing per plan, and the
   pipeline splices (against the snapshot's captured context) only when
   some intent is left after carry-over and the pre-check.  The
   context's simulate counter is read around each drain. *)
let test_splice_policy () =
  let srv = Server.create () in
  let snap = Server.register_snapshot srv (Lazy.force base) in
  let simulates () =
    fst (Incremental.counters (Lazy.force snap.Snapshot.sn_inc))
  in
  let serve rqs =
    List.iter (submit_ok srv) rqs;
    let rs = Server.drain srv in
    check tint "all served" (List.length rqs) (List.length rs);
    List.iter2
      (fun rq (r : Server.response) ->
        let st, body = Server.run_direct snap rq in
        check tbool (r.Server.rs_id ^ ": status matches direct") true
          (st = r.Server.rs_status);
        check tstr (r.Server.rs_id ^ ": body identical to direct") body
          r.Server.rs_body)
      rqs rs
  in
  serve [ mk_rq ~id:"lint" Request.Lint; mk_rq ~id:"pre" Request.Precheck ];
  check tbool "lint and precheck leave the context uncaptured" false
    (Lazy.is_val snap.Snapshot.sn_inc);
  serve [ whatif_rq ~id:"whatif" () ];
  check tbool "a whatif sweep leaves the context uncaptured" false
    (Lazy.is_val snap.Snapshot.sn_inc);
  let n0 = simulates () in
  serve
    [
      Request.make ~plan:(Cp.make "noop")
        ~intents:[ Intents.Route_change "PRE = POST" ]
        ~id:"noop" Request.Diff;
    ];
  check tint "a no-op diff carries every intent: no splice" n0 (simulates ());
  let per_device =
    Intents.Route_change
      (Printf.sprintf
         "forall device in {%s} : PRE |> count() = POST |> count()" border)
  in
  serve
    [
      mk_rq ~no_cache:true ~id:"sim-a" Request.Simulate;
      mk_rq ~no_cache:true ~intents:[ per_device ] ~id:"sim-b" Request.Simulate;
    ];
  check tint "same plan, different intents: spliced twice" (n0 + 2)
    (simulates ())

(* ------------------------------------------------------------------ *)
(* shared-snapshot isolation (the satellite-1 regression)              *)
(* ------------------------------------------------------------------ *)

(* Back-to-back requests over ONE shared snapshot must be byte-identical
   to the same requests over fresh snapshots: nothing in a run (intern
   tables, lazies, telemetry, model updates, withdrawals) may leak into
   the shared base. *)
let test_sequential_requests_isolated () =
  let rq1 =
    Request.make
      ~plan:
        (Cp.make "wd"
           ~commands:[ (border, pref_block 250) ]
           ~withdraw:[ pfx "10.1.0.0/16" ])
      ~intents:[ Intents.Route_change "PRE = POST" ]
      ~id:"wd" Request.Simulate
  in
  let rq2 = mk_rq ~pref:240 ~id:"seq2" Request.Diff in
  let register b = Snapshot.register ~digest:(Snapshot.digest_of_base b) b in
  let shared = register (Lazy.force base) in
  let s1 = Server.run_direct shared rq1 in
  let s2 = Server.run_direct shared rq2 in
  let fresh rq =
    Server.run_direct (register (base_of (G.generate G.small))) rq
  in
  let f1 = fresh rq1 in
  let f2 = fresh rq2 in
  check tstr "request 1: shared = fresh" (snd f1) (snd s1);
  check tstr "request 2 after 1: shared = fresh" (snd f2) (snd s2);
  check tbool "statuses match too" true (fst f1 = fst s1 && fst f2 = fst s2);
  (* and running request 1 again on the same shared snapshot still
     matches *)
  let s1' = Server.run_direct shared rq1 in
  check tstr "request 1 re-run on shared snapshot unchanged" (snd s1) (snd s1')

(* ------------------------------------------------------------------ *)
(* the class-to-stage table                                            *)
(* ------------------------------------------------------------------ *)

let route_name = function
  | VR.Not_run -> "not-run"
  | VR.Resolved -> "resolved"
  | VR.Full_run -> "full-run"
  | VR.Spliced _ -> "spliced"
  | VR.Merged _ -> "merged"

let exec_name = function
  | VR.From_scratch -> "from-scratch"
  | VR.Splice _ -> "splice"
  | VR.Distributed _ -> "distributed"

let stage_name = function
  | VR.Lint -> "lint"
  | VR.Precheck -> "precheck"
  | VR.Simulate e -> "simulate/" ^ exec_name e
  | VR.Diff e -> "diff/" ^ exec_name e

(* Each server class is one stage of Verify_request.run, and the two
   simulating stages carry their executor: eight stage values.  Per
   stage: whether the lint pass ran, whether the plan was applied (one
   [verify.diff] in every stage), whether the patched model
   was compiled by the pipeline's route step ([verify.model_update]:
   only the from-scratch and distributed route runs; a splice compiles
   its own inside [inc.simulate]), whether the carry-over and the
   pre-checker ran, and the route run of a local plan and of a no-op
   plan (every intent carries over under Diff).  A stage that runs no
   route step compiles no patched model.  Only the simulating stages
   force the base RIB, and the server's body for a class is the body of
   each of its stages. *)
let test_stage_table () =
  (* a fresh base: its converged RIB is still lazy *)
  let b = base_of (G.generate G.small) in
  let intents = [ Intents.Route_change "PRE = POST" ] in
  let local = Cp.make "local" ~commands:[ (border, pref_block 250) ] in
  let noop = Cp.make "noop" in
  let rq plan = { VR.rq_name = "stage"; rq_plan = plan; rq_intents = intents } in
  (* captured (forcing the base RIB) by the first splicing stage *)
  let cx =
    lazy
      (Incremental.capture ~model:b.Preprocess.b_model
         ~input_routes:b.Preprocess.b_input_routes ~flows:b.Preprocess.b_flows
         ~rib:(Lazy.force b.Preprocess.b_rib) ())
  in
  let splice () = VR.Splice (Lazy.force cx) in
  let dist () =
    VR.Distributed
      { subtasks = 4; chaos = Hoyan_dist.Chaos.none; on_partial = `Refuse }
  in
  (* class, stage, lint pass, plan applied, model compiled by the route
     step, route run of the local plan, route run of the no-op plan *)
  let table =
    [
      (Request.Lint, (fun () -> VR.Lint), true, true, false, "not-run",
       "not-run");
      (Request.Precheck, (fun () -> VR.Precheck), false, true, false,
       "not-run", "not-run");
      (Request.Simulate, (fun () -> VR.Simulate VR.From_scratch), true, true,
       true, "full-run", "full-run");
      (Request.Simulate, (fun () -> VR.Simulate (splice ())), true, true,
       false, "spliced", "spliced");
      (Request.Simulate, (fun () -> VR.Simulate (dist ())), true, true, true,
       "merged", "merged");
      (Request.Diff, (fun () -> VR.Diff VR.From_scratch), true, true, true,
       "full-run", "resolved");
      (Request.Diff, (fun () -> VR.Diff (splice ())), true, true, false,
       "spliced", "resolved");
      (Request.Diff, (fun () -> VR.Diff (dist ())), true, true, true,
       "merged", "resolved");
    ]
  in
  let spans_of tm =
    List.map
      (fun (e : Trace.event) -> e.Trace.te_name)
      (Trace.events tm.Telemetry.trace)
  in
  let forced = ref false in
  List.iter
    (fun (_, stage, lint, applied, compiled, route, route_noop) ->
      let stage = stage () in
      let tm = Telemetry.create () in
      let r = VR.run ~tm ~stage b (rq local) in
      let what field = Printf.sprintf "%s: %s" (stage_name stage) field in
      let spans = spans_of tm in
      let event ev = Journal.find tm.Telemetry.journal ev <> [] in
      let diffs = match stage with VR.Diff _ -> true | _ -> false in
      check tbool (what "lint pass") lint (List.mem "verify.lint_gate" spans);
      check tbool (what "lint.gate event") lint (event "lint.gate");
      check tbool (what "verify.done event") (stage <> VR.Lint)
        (event "verify.done");
      check tbool (what "plan applied") applied
        (List.mem "verify.diff" spans);
      check tbool (what "model compiled by the route step") compiled
        (List.mem "verify.model_update" spans);
      check tbool (what "differential pass") diffs (r.VR.vr_diff <> None);
      check tbool (what "pre-checker") (stage <> VR.Lint)
        (r.VR.vr_precheck <> []);
      check tstr (what "route run") route (route_name r.VR.vr_route);
      let simulates = route <> "not-run" in
      check tbool (what "base RIB returned") simulates
        (r.VR.vr_base_rib <> Rib.empty);
      forced := !forced || simulates;
      check tbool (what "base RIB forced") !forced
        (Lazy.is_val b.Preprocess.b_rib);
      let tm_noop = Telemetry.create () in
      let r_noop = VR.run ~tm:tm_noop ~stage b (rq noop) in
      check tbool (what "no-op plan: differential pass") diffs
        (r_noop.VR.vr_diff <> None);
      check tstr (what "no-op plan: route run") route_noop
        (route_name r_noop.VR.vr_route);
      (* no route step, no patched model: a precheck request and a
         resolved no-op diff compile none *)
      List.iter
        (fun (r, tm, plan) ->
          if r.VR.vr_route = VR.Resolved || stage = VR.Precheck then
            List.iter
              (fun span ->
                check tbool
                  (what (Printf.sprintf "%s plan: no %s" plan span))
                  false
                  (List.mem span (spans_of tm)))
              [ "verify.model_update"; "inc.simulate" ])
        [ (r, tm, "local"); (r_noop, tm_noop, "no-op") ])
    table;
  let snap = Snapshot.register ~digest:(Snapshot.digest_of_base b) b in
  List.iter
    (fun (cls, stage, _, _, _, _, _) ->
      let stage = stage () in
      let _, body =
        Server.run_direct snap (Request.make ~plan:local ~intents ~id:"s" cls)
      in
      check tstr
        (stage_name stage ^ ": server body = stage body")
        (VR.body (VR.run ~stage b (rq local)))
        body)
    table

(* ------------------------------------------------------------------ *)
(* one application of the plan per served request                      *)
(* ------------------------------------------------------------------ *)

(* Every class, served twice so that the second copy is a cache hit:
   each server.request span holds exactly one differential.diff span.
   The cache key, the lint pass and the pipeline all read the request's
   one diff, and a hit still applies the plan once, for its key. *)
let test_one_application_per_request () =
  let tm = Telemetry.create () in
  let srv = Server.create ~tm () in
  ignore (Server.register_snapshot srv (Lazy.force base));
  let round i =
    List.map
      (fun cls ->
        mk_rq ~id:(Printf.sprintf "%s-%d" (Request.class_to_string cls) i) cls)
      [ Request.Lint; Request.Precheck; Request.Simulate; Request.Diff ]
    @ [ whatif_rq ~id:(Printf.sprintf "whatif-%d" i) () ]
  in
  let rqs = round 1 @ round 2 in
  List.iter (submit_ok srv) rqs;
  let rs = Server.drain srv in
  List.iter
    (fun (r : Server.response) ->
      check tbool (r.Server.rs_id ^ ": answered") true
        (r.Server.rs_status = Server.Ok || r.Server.rs_status = Server.Fail);
      check tbool
        (r.Server.rs_id ^ ": the second copy is a cache hit")
        (r.Server.rs_seq >= List.length (round 1))
        r.Server.rs_cached)
    rs;
  let events = Trace.events tm.Telemetry.trace in
  let named n =
    List.filter (fun (e : Trace.event) -> String.equal e.Trace.te_name n) events
  in
  let within (outer : Trace.event) (e : Trace.event) =
    e.Trace.te_ts_ns >= outer.Trace.te_ts_ns
    && Int64.add e.Trace.te_ts_ns e.Trace.te_dur_ns
       <= Int64.add outer.Trace.te_ts_ns outer.Trace.te_dur_ns
  in
  let requests = named "server.request" in
  check tint "one server.request span per request" (List.length rqs)
    (List.length requests);
  check tint "one differential.diff span per request" (List.length rqs)
    (List.length (named "differential.diff"));
  List.iter
    (fun (r : Trace.event) ->
      let id =
        Option.value (List.assoc_opt "id" r.Trace.te_args) ~default:"?"
      in
      check tint
        (id ^ ": one differential.diff inside its server.request")
        1
        (List.length (List.filter (within r) (named "differential.diff"))))
    requests

let suite =
  [
    Alcotest.test_case "cache: hit/miss accounting" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache: LRU eviction bound" `Quick test_cache_lru_bound;
    Alcotest.test_case "cache: zero capacity disables" `Quick
      test_cache_zero_capacity;
    qtest prop_digest_restatement_stable;
    Alcotest.test_case "digest: sensitive to real changes" `Quick
      test_digest_sensitive;
    Alcotest.test_case "digest: intent order matters" `Quick
      test_intents_digest_order;
    Alcotest.test_case "cache key: class in, tenant/id out" `Quick
      test_cache_key_class;
    Alcotest.test_case "transport: print/parse round trip" `Quick
      test_transport_roundtrip;
    Alcotest.test_case "transport: parse errors carry lines" `Quick
      test_transport_errors;
    Alcotest.test_case "snapshot: content-addressed identity" `Quick
      test_snapshot_identity;
    Alcotest.test_case "snapshot registration dedups on digest" `Quick
      test_snapshot_register_dedup;
    Alcotest.test_case "server: responses byte-identical to direct" `Quick
      test_server_matches_direct;
    Alcotest.test_case "server: whatif byte-identical to direct, cached too"
      `Quick test_whatif_matches_direct;
    Alcotest.test_case "server: whatif needs exactly one reach intent" `Quick
      test_whatif_intents_checked;
    Alcotest.test_case "server: mixed stream with eviction = direct" `Slow
      test_mixed_stream_matches_direct;
    Alcotest.test_case "server: duplicate served from cache" `Quick
      test_duplicate_hits_cache;
    Alcotest.test_case "server: no-cache bypass" `Quick test_no_cache_bypass;
    Alcotest.test_case "server: admission control" `Quick test_admission;
    Alcotest.test_case "server: zero budget -> timeout, no verdict" `Quick
      test_budget_timeout;
    Alcotest.test_case "server: splice only what the pipeline simulates"
      `Quick test_splice_policy;
    Alcotest.test_case "shared snapshot: sequential isolation" `Quick
      test_sequential_requests_isolated;
    Alcotest.test_case "verify: the class-to-stage table" `Quick
      test_stage_table;
    Alcotest.test_case "server: one plan application per request" `Quick
      test_one_application_per_request;
  ]
