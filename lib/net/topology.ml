(** Network topology: devices, interfaces and links.

    The topology is what the topology monitoring system reports (§2.1); a
    change plan can add/remove devices and links (§2.2).  Links are stored
    as directed edges (two per physical link) because traffic load is
    accounted per direction. *)

type role = Wan_core | Wan_border | Dc_core | Dc_border | Isp_peer | Rr

type device = {
  name : string;
  vendor : string; (* key into the vendor profile table *)
  asn : int;
  router_id : Ip.t;
  region : string;
  role : role;
}

type iface = { dev : string; ifname : string; addr : Ip.t option }

type edge = {
  src : string; (* device name *)
  src_if : string;
  dst : string;
  dst_if : string;
  bandwidth : float; (* bits per second *)
}

module Smap = Map.Make (String)

type t = {
  devices : device Smap.t;
  edges : edge list; (* directed; both directions present *)
  adj : edge list Smap.t; (* outgoing edges per device *)
  ifaces : iface list Smap.t; (* interfaces per device *)
}

let empty =
  { devices = Smap.empty; edges = []; adj = Smap.empty; ifaces = Smap.empty }

let add_device t (d : device) = { t with devices = Smap.add d.name d t.devices }

let device t name = Smap.find_opt name t.devices

let device_exn t name =
  match device t name with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Topology.device_exn: %s" name)

let devices t = Smap.bindings t.devices |> List.map snd

let device_names t = Smap.bindings t.devices |> List.map fst

let num_devices t = Smap.cardinal t.devices

let add_iface t (i : iface) =
  let existing = Option.value (Smap.find_opt i.dev t.ifaces) ~default:[] in
  { t with ifaces = Smap.add i.dev (i :: existing) t.ifaces }

let ifaces t dev = Option.value (Smap.find_opt dev t.ifaces) ~default:[]

(** Add a bidirectional link; creates the two directed edges. *)
let add_link t ~a ~a_if ~b ~b_if ~bandwidth =
  let e1 = { src = a; src_if = a_if; dst = b; dst_if = b_if; bandwidth } in
  let e2 = { src = b; src_if = b_if; dst = a; dst_if = a_if; bandwidth } in
  let push e adj =
    let existing = Option.value (Smap.find_opt e.src adj) ~default:[] in
    Smap.add e.src (e :: existing) adj
  in
  {
    t with
    edges = e1 :: e2 :: t.edges;
    adj = push e2 (push e1 t.adj);
  }

(** Remove both directions of the link between [a] and [b] (all parallel
    links between the pair when interfaces are not specified). *)
let remove_link t ~a ~b =
  let keep e =
    not
      ((String.equal e.src a && String.equal e.dst b)
      || (String.equal e.src b && String.equal e.dst a))
  in
  {
    t with
    edges = List.filter keep t.edges;
    adj = Smap.map (List.filter keep) t.adj;
  }

let remove_device t name =
  let keep e = not (String.equal e.src name || String.equal e.dst name) in
  {
    devices = Smap.remove name t.devices;
    edges = List.filter keep t.edges;
    adj = Smap.map (List.filter keep) (Smap.remove name t.adj);
    ifaces = Smap.remove name t.ifaces;
  }

let out_edges t dev = Option.value (Smap.find_opt dev t.adj) ~default:[]

let neighbors t dev = out_edges t dev |> List.map (fun e -> e.dst)

let edges t = t.edges

let num_links t = List.length t.edges / 2

(** The directed edge from [a] to [b], if any (first parallel link). *)
let edge_between t a b =
  List.find_opt (fun e -> String.equal e.dst b) (out_edges t a)

let link_key e = Printf.sprintf "%s:%s->%s:%s" e.src e.src_if e.dst e.dst_if
