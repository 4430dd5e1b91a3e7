(* The snapshot store's unit of sharing (see the .mli).

   The digest is a hex MD5 over a canonical rendering: device configs in
   device-name order through the production printer, the topology's
   device set and link keys sorted, and the filtered input routes/flows
   sorted by their canonical renderings.  Sorting everywhere makes the
   digest a function of the base's {e content}, not of the order the
   generator or the parser happened to emit things in. *)

open Hoyan_net
module Model = Hoyan_sim.Model
module Types = Hoyan_config.Types
module Printer = Hoyan_config.Printer
module Preprocess = Hoyan_core.Preprocess
module Incremental = Hoyan_sim.Incremental
module Telemetry = Hoyan_telemetry.Telemetry
module Smap = Types.Smap

type t = {
  sn_digest : string;
  sn_base : Preprocess.base;
  sn_devices : int;
  sn_input_routes : int;
  sn_flows : int;
  sn_rib_rows : int;
  sn_converge_s : float;
  sn_inc : Incremental.ctx Lazy.t;
}

let digest_of_base (base : Preprocess.base) : string =
  let model = base.Preprocess.b_model in
  let b = Buffer.create 65536 in
  (* device configurations, in name order, through the printer *)
  Smap.iter
    (fun dev cfg ->
      Buffer.add_string b "config ";
      Buffer.add_string b dev;
      Buffer.add_char b '\n';
      Buffer.add_string b (Printer.print cfg);
      Buffer.add_char b '\n')
    model.Model.configs;
  (* topology: devices then links, both sorted *)
  List.iter
    (fun (d : Topology.device) ->
      Buffer.add_string b
        (Printf.sprintf "device %s %s %d %s %s\n" d.Topology.name
           d.Topology.vendor d.Topology.asn
           (Ip.to_string d.Topology.router_id)
           d.Topology.region))
    (List.sort
       (fun (a : Topology.device) b -> String.compare a.Topology.name b.Topology.name)
       (Topology.devices model.Model.topo));
  List.iter
    (fun k ->
      Buffer.add_string b "link ";
      Buffer.add_string b k;
      Buffer.add_char b '\n')
    (List.sort String.compare
       (List.map Topology.link_key (Topology.edges model.Model.topo)));
  (* filtered simulation inputs, sorted by rendering *)
  List.iter
    (fun s ->
      Buffer.add_string b "route ";
      Buffer.add_string b s;
      Buffer.add_char b '\n')
    (List.sort String.compare (List.map Route.to_string base.Preprocess.b_input_routes));
  List.iter
    (fun s ->
      Buffer.add_string b "flow ";
      Buffer.add_string b s;
      Buffer.add_char b '\n')
    (List.sort String.compare (List.map Flow.to_string base.Preprocess.b_flows));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Registration dedups in the server's own snapshot table; nothing here
   outlives the server that registered it. *)
let reset_registry () = ()

let register ?tm ~digest (base : Preprocess.base) : t =
  let tm = match tm with Some tm -> tm | None -> Telemetry.get () in
  Telemetry.with_span tm "server.snapshot" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* converge the shared state once: every later request reads these
     results; none re-runs the base fixpoints *)
  let rib = Lazy.force base.Preprocess.b_rib in
  ignore (Lazy.force base.Preprocess.b_traffic);
  let converge_s = Unix.gettimeofday () -. t0 in
  let t =
    {
      sn_digest = digest;
      sn_base = base;
      sn_devices = Smap.cardinal base.Preprocess.b_model.Model.configs;
      sn_input_routes = List.length base.Preprocess.b_input_routes;
      sn_flows = List.length base.Preprocess.b_flows;
      sn_rib_rows = Rib.length rib;
      sn_converge_s = converge_s;
      sn_inc =
        lazy
          (Incremental.capture ~tm ~model:base.Preprocess.b_model
             ~input_routes:base.Preprocess.b_input_routes
             ~flows:base.Preprocess.b_flows ~rib ());
    }
  in
  if Telemetry.enabled tm then begin
    Telemetry.gauge tm ~labels:[ ("snapshot", digest) ]
      "hoyan_server_snapshot_rib_rows" (float_of_int t.sn_rib_rows);
    Telemetry.observe tm "hoyan_server_snapshot_converge_seconds" converge_s
  end;
  t

let to_string (t : t) : string =
  Printf.sprintf
    "snapshot %s: %d device(s), %d input route(s), %d flow(s), %d RIB \
     row(s), converged in %.2fs"
    (String.sub t.sn_digest 0 12)
    t.sn_devices t.sn_input_routes t.sn_flows t.sn_rib_rows t.sn_converge_s
