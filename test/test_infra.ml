(* Unit tests of the distributed-framework building blocks: object store,
   message queue, subtask DB, cost model — plus the change-plan command
   grammar corners not covered elsewhere. *)

open Hoyan_net
module Storage = Hoyan_dist.Storage
module Mq = Hoyan_dist.Mq
module Db = Hoyan_dist.Db
module Costmodel = Hoyan_dist.Costmodel
module Cp = Hoyan_config.Change_plan
module Parser_a = Hoyan_config.Parser_a

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let route n =
  Route.make ~device:"X" ~prefix:(Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/24" n)) ()

let run rs =
  Storage.O_run
    { Hoyan_sim.Route_sim.rn_keys = []; rn_routes = rs;
      rn_range = (Ip.V4 0, Ip.V4 0) }

let test_storage () =
  let s = Storage.create () in
  Storage.put s ~key:"a" (run [ route 1; route 2 ]);
  check tbool "mem" true (Storage.mem s ~key:"a");
  check tbool "not mem" false (Storage.mem s ~key:"b");
  (match Storage.get s ~key:"a" with
  | Some (Storage.O_run r) ->
      check tint "roundtrip" 2 (List.length r.Hoyan_sim.Route_sim.rn_routes)
  | _ -> Alcotest.fail "wrong payload");
  (* accounting *)
  let st = Storage.stats s in
  check tint "bytes written" (2 * Storage.bytes_per_route) st.Storage.bytes_written;
  check tint "files written" 1 st.Storage.files_written;
  check tint "bytes read" (2 * Storage.bytes_per_route) st.Storage.bytes_read;
  check tint "files read" 1 st.Storage.files_read;
  (* overwrite replaces *)
  Storage.put s ~key:"a" (run [ route 3 ]);
  (match Storage.get s ~key:"a" with
  | Some (Storage.O_run { Hoyan_sim.Route_sim.rn_routes = [ r ]; _ }) ->
      check Alcotest.string "replaced" "10.3.0.0/24"
        (Prefix.to_string r.Route.prefix)
  | _ -> Alcotest.fail "replace failed");
  check tint "keys" 1 (List.length (Storage.keys s))

let test_mq () =
  let q = Mq.create () in
  check tbool "empty" true (Mq.is_empty q);
  let msg i =
    { Mq.m_id = Printf.sprintf "t-%d" i; m_kind = Mq.Route_subtask;
      m_input_key = "k"; m_snapshot = "base"; m_attempt = 1 }
  in
  Mq.push q (msg 1);
  Mq.push q (msg 2);
  check tint "length" 2 (Mq.length q);
  (* FIFO order *)
  (match Mq.pop q with
  | Some m -> check Alcotest.string "fifo" "t-1" m.Mq.m_id
  | None -> Alcotest.fail "pop");
  (match Mq.pop q with
  | Some m -> check Alcotest.string "fifo 2" "t-2" m.Mq.m_id
  | None -> Alcotest.fail "pop");
  check tbool "drained" true (Mq.pop q = None)

let test_db () =
  let db = Db.create () in
  let e = Db.register db "t-1" in
  check tbool "pending" true (Db.status e = Db.Pending);
  Db.set_status db "t-1" Db.Running;
  check tbool "not all done" false (Db.all_done db);
  Db.set_status db "t-1" Db.Done;
  check tbool "all done" true (Db.all_done db);
  ignore (Db.register db "t-2");
  Db.set_status db "t-2" (Db.Failed "boom");
  check tint "one failed" 1
    (Db.count_status db (function Db.Failed _ -> true | _ -> false));
  check tbool "find" true (Db.find db "t-2" <> None);
  check tbool "find miss" true (Db.find db "t-9" = None)

let test_costmodel () =
  let c = Costmodel.production_like in
  let t = Costmodel.io_time c ~bytes:500_000_000 ~files:10 in
  (* 10 * 20ms + 1s transfer *)
  check (Alcotest.float 0.01) "io time" 1.2 t;
  let e = Db.register (Db.create ()) "x" in
  Db.complete e ~duration_s:2.0 ~io_bytes:500_000_000 ~io_files:10 ();
  check (Alcotest.float 0.01) "subtask time" 3.2 (Costmodel.subtask_time c e)

let test_change_plan_line_count () =
  let cp =
    Cp.make "x"
      ~commands:[ ("A", "line1\nline2\n\n  line3\n"); ("B", "only\n") ]
  in
  check tint "command lines" 4 (Cp.command_line_count cp)

let test_delete_whole_policy_and_lists () =
  let base, _ =
    Parser_a.parse ~device:"x"
      "route-map RM permit 10\nip prefix-list PL seq 5 permit 10.0.0.0/24\n\
       ip community-list CL seq 5 permit 1:1\n"
  in
  let cfg, report =
    Cp.apply_commands base
      "no route-map RM\nno ip prefix-list PL\nno ip community-list CL\n"
  in
  check tint "no delete errors" 0 (List.length (Cp.delete_issues report));
  check tbool "policy gone" true
    (Hoyan_config.Types.find_policy cfg "RM" = None);
  check tbool "prefix list gone" true
    (Hoyan_config.Types.find_prefix_list cfg "PL" = None);
  check tbool "community list gone" true
    (Hoyan_config.Types.find_community_list cfg "CL" = None)

let test_delete_bgp_members () =
  let base, _ =
    Parser_a.parse ~device:"x"
      "router bgp 65001\n neighbor 10.0.0.2 remote-as 65002\n network \
       10.0.0.0/24\n"
  in
  let cfg, report =
    Cp.apply_commands base
      "no router bgp neighbor 10.0.0.2\nno router bgp network 10.0.0.0/24\n"
  in
  check tint "clean" 0 (List.length (Cp.delete_issues report));
  let bgp = cfg.Hoyan_config.Types.dc_bgp in
  check tint "neighbor removed" 0
    (List.length bgp.Hoyan_config.Types.bgp_neighbors);
  check tint "network removed" 0
    (List.length bgp.Hoyan_config.Types.bgp_networks)

let suite =
  [
    ("object store", `Quick, test_storage);
    ("message queue", `Quick, test_mq);
    ("subtask db", `Quick, test_db);
    ("cost model", `Quick, test_costmodel);
    ("change plan line count", `Quick, test_change_plan_line_count);
    ("delete whole objects", `Quick, test_delete_whole_policy_and_lists);
    ("delete bgp members", `Quick, test_delete_bgp_members);
  ]
